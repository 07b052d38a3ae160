package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"ksa/internal/core"
	"ksa/internal/corpus"
	"ksa/internal/platform"
	"ksa/internal/runner"
	"ksa/internal/sim"
	"ksa/internal/specialize"
	"ksa/internal/syscalls"
	"ksa/internal/varbench"
)

// isolation-contention: the default-scale isolation experiment, the only
// workload on which the trace/isolation observer hooks fire (every lock
// event feeds the contention recorder) and the result store is bypassed.
// RunIsolationContext draws its corpus and its cells from one root seed,
// and corpora drawn from different seeds differ in cost by up to 30%, more
// than the metrics' bounds; so this workload always runs the default
// scale's seed, and its output does not depend on the run's seed.
type isolationRun struct {
	cfg    config
	sc     core.Scale
	digest string
	tasks  atomic.Int64
	counts cellCounts
	runnerStats
}

func newIsolation(cfg config) instance { return &isolationRun{cfg: cfg} }

// setup generates and profiles the corpus. RunIsolationContext does both
// again inside every round, so set-up measures what they cost on their own.
func (w *isolationRun) setup(tr *tracer) error {
	w.sc = core.DefaultScale()
	w.sc.Parallel = workers
	w.corpusAndProfile(tr)
	return nil
}

func (w *isolationRun) corpusAndProfile(tr *tracer) (c *corpus.Corpus, prof *specialize.Profile) {
	tr.do("fuzz.generate", 0, 0, func(int) { c, _ = w.sc.GenerateCorpus() })
	tr.do("specialize.profile", 0, 0, func(int) {
		prof = specialize.ProfileCorpus(c, syscalls.Default(),
			runner.DeriveSeed(w.sc.Seed, "specialize/profile"), 0)
	})
	return c, prof
}

func (w *isolationRun) round(i int) (roundOut, error) {
	res, err := core.RunIsolationContext(context.Background(), w.sc)
	if err != nil {
		return roundOut{}, err
	}
	w.digest = res.Digest()
	return roundOut{ops: res.Par.JobWall, attempted: len(res.Rows), digest: w.digest}, nil
}

// isolationEnvs is the experiment's grid: every Table 1 KVM partition,
// containers at 1, 8 and 64, and 64 specialized kernels.
func isolationEnvs(prof *specialize.Profile) []core.EnvSpec {
	var envs []core.EnvSpec
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		envs = append(envs, core.EnvSpec{Kind: platform.KindVMs, Units: n})
	}
	for _, n := range []int{1, 8, 64} {
		envs = append(envs, core.EnvSpec{Kind: platform.KindContainers, Units: n})
	}
	return append(envs, core.EnvSpec{Kind: platform.KindSpecialized, Units: 64, Profile: prof})
}

// tracedRound replays RunIsolationContext: corpus and profile, then one
// contention-recording varbench run per environment, scored and reduced
// to the same rows.
func (w *isolationRun) tracedRound(tr *tracer, i int) (string, error) {
	c, prof := w.corpusAndProfile(tr)
	var jobs []runner.Job[core.IsolationRow]
	sid := tr.begin("runner.sweep", 0, 0)
	for j, env := range isolationEnvs(prof) {
		op := i*1000 + j + 1
		jobs = append(jobs, runner.Job[core.IsolationRow]{
			Key: fmt.Sprintf("isolation/%s", env),
			Run: func(seed uint64) core.IsolationRow {
				var row core.IsolationRow
				tr.do("core.cell", sid, op, func(id int) {
					eng := sim.NewEngine()
					var pe *platform.Environment
					tr.do("platform.build", id, op, func(int) { pe = env.Build(eng, platform.PaperMachine, seed) })
					w.counts.kernels.Add(int64(len(pe.Kernels)))
					opts := varbench.Options{Iterations: w.sc.Iterations, Warmup: w.sc.Warmup,
						Seed: seed, ExactStats: w.sc.ExactStats, Contention: true}
					var r *varbench.Result
					tr.do("varbench.run", id, op, func(int) { r = varbench.Run(pe, c, opts) })
					tr.do("isolation.score", id, op, func(int) { row = isolationRow(env, r) })
					w.tasks.Add(int64(r.Isolation.Tasks()))
				})
				return row
			},
		})
	}
	rows, m, err := runner.SweepOn(context.Background(), runner.Inline{Workers: workers}, 0, w.sc.Seed, jobs)
	tr.end(sid)
	if err != nil {
		return "", err
	}
	w.noteRunner(m)
	res := core.IsolationResult{Rows: rows, Par: m}
	var digest string
	tr.do("core.render", 0, 0, func(int) {
		_ = res.Render()
		digest = res.Digest()
	})
	return digest, nil
}

// maxLeakRows caps the leaking-lock rows per environment, as the
// experiment does.
const maxLeakRows = 5

// isolationRow reduces one run's recorder to its report row, as the
// experiment does: the score, the shared lock surface, and the families
// leaking the most cross-tenant wait.
func isolationRow(env core.EnvSpec, r *varbench.Result) core.IsolationRow {
	rec := r.Isolation
	s := rec.ComputeScore()
	row := core.IsolationRow{
		Env:             env,
		Score:           s.Value,
		TailTasks:       s.TailTasks,
		TailWallUS:      s.TailWall.Micros(),
		TailCrossUS:     s.TailCross.Micros(),
		TailInjUS:       s.TailInj.Micros(),
		WallUS:          s.Wall.Micros(),
		WaitUS:          s.Wait.Micros(),
		CrossUS:         s.Cross.Micros(),
		InjUS:           s.Inj.Micros(),
		SharedFamilies:  s.SharedFamilies,
		TouchedFamilies: s.TouchedFamilies,
	}
	for _, fa := range rec.Families() {
		if fa.Cross == 0 || len(row.Leaks) >= maxLeakRows {
			break
		}
		row.Leaks = append(row.Leaks, core.IsolationLeak{
			Family:       fa.Family,
			CrossUS:      fa.Cross.Micros(),
			WaitUS:       fa.Wait.Micros(),
			InjUS:        fa.Inj.Micros(),
			HoldUS:       fa.Hold.Micros(),
			Waiters:      fa.Waiters,
			Holders:      fa.Holders,
			SharedScopes: fa.SharedScopes,
			From:         fa.From,
			To:           fa.To,
			EdgeUS:       fa.Edge.Micros(),
		})
	}
	return row
}

func (w *isolationRun) traced(tr *tracer, budget time.Duration) (tracedOut, error) {
	out, err := tracedBatch(w, tr, budget)
	if err != nil {
		return out, err
	}
	out.layers["isolation.tasks"] = float64(w.tasks.Load()) / float64(out.rounds)
	out.layers["platform.kernels"] = float64(w.counts.kernels.Load()) / float64(out.rounds)
	out.notes = append(out.notes, w.runnerLayers(out.layers))
	return out, nil
}

func (w *isolationRun) pins() map[string]string { return map[string]string{"digest": w.digest} }

func (w *isolationRun) prepare() (attempted, failed int) { return 0, 0 }

func (w *isolationRun) close() {}
