package main

import (
	"context"
	"fmt"
	"time"

	"ksa/internal/core"
	"ksa/internal/corpus"
	"ksa/internal/platform"
	"ksa/internal/resultcache"
	"ksa/internal/runner"
	"ksa/internal/specialize"
	"ksa/internal/syscalls"
)

// sweep-cold: the paper's measurement itself, a default-scale grid over an
// empty result store. The corpus is the default scale's (the study's one
// workload, and corpora drawn from other seeds differ in cost by up to
// 30%); the run's seed is the grid's root seed, so it draws every cell's
// noise and construction randomness.
var sweepEnvs = []string{"native", "kvm-8", "kvm-64", "docker-64", "specialized-64"}

const sweepTrials = 2

type sweepRun struct {
	cfg    config
	sc     core.Scale
	corpus *corpus.Corpus
	envs   []core.EnvSpec
	digest string
	counts cellCounts
	stats  resultcache.Stats // summed over traced rounds
	runnerStats
}

func newSweep(cfg config) instance { return &sweepRun{cfg: cfg} }

// setup generates the corpus and profiles it for the specialized
// environment, with the seed PlanSweep itself would use, so rounds do not
// re-profile.
func (w *sweepRun) setup(tr *tracer) error {
	envs, err := core.ParseEnvSpecs(sweepEnvs)
	if err != nil {
		return err
	}
	tr.do("fuzz.generate", 0, 0, func(int) { w.corpus, _ = core.DefaultScale().GenerateCorpus() })
	w.sc = core.DefaultScale()
	w.sc.Seed = w.cfg.seed
	w.sc.Parallel = workers
	var prof *specialize.Profile
	tr.do("specialize.profile", 0, 0, func(int) {
		prof = specialize.ProfileCorpus(w.corpus, syscalls.Default(),
			runner.DeriveSeed(w.sc.Seed, "specialize/profile"), 0)
	})
	for i := range envs {
		if envs[i].Kind == platform.KindSpecialized {
			envs[i].Profile = prof
		}
	}
	w.envs = envs
	return nil
}

func (w *sweepRun) opts(st *resultcache.Store) core.SweepOptions {
	sc := w.sc
	sc.Cache = st
	return core.SweepOptions{Scale: sc, Envs: w.envs, Trials: sweepTrials, Corpus: w.corpus}
}

func (w *sweepRun) round(i int) (roundOut, error) {
	st, err := freshStore(w.cfg.dir, "cache")
	if err != nil {
		return roundOut{}, err
	}
	res, err := core.RunSweepContext(context.Background(), w.opts(st))
	if err != nil {
		return roundOut{}, err
	}
	out := roundOut{ops: res.Par.JobWall, attempted: len(res.Runs), digest: res.Digest()}
	// A cold store must miss every cell and store every one.
	if s := st.Stats(); s.Hits != 0 || s.Puts != int64(len(res.Runs)) {
		fmt.Printf("check FAIL round %d: cold store served %d hits, stored %d of %d cells\n",
			i, s.Hits, s.Puts, len(res.Runs))
		out.failed++
	}
	w.digest = out.digest
	return out, nil
}

func (w *sweepRun) tracedRound(tr *tracer, i int) (string, error) {
	st, err := freshStore(w.cfg.dir, "cache")
	if err != nil {
		return "", err
	}
	var p core.SweepPlan
	tr.do("core.plan", 0, 0, func(int) { p = core.PlanSweep(w.opts(st)) })
	sid := tr.begin("runner.sweep", 0, 0)
	jobs := make([]runner.Job[core.SweepRun], len(p.Cells))
	errs := make([]error, len(p.Cells))
	for j, c := range p.Cells {
		jobs[j] = runner.Job[core.SweepRun]{Key: c.JobKey, Run: func(uint64) core.SweepRun {
			op := i*1000 + c.Index + 1
			var run core.SweepRun
			tr.do("core.cell", sid, op, func(id int) {
				res, _, err := cellThroughCache(tr, id, op, p, st, c, &w.counts)
				errs[c.Index] = err
				run = core.SweepRun{Env: c.Env, Trial: c.Trial, FaultSig: c.FaultSig, Seed: c.Seed, Res: res}
			})
			return run
		}}
	}
	runs, m, err := runner.SweepOn(context.Background(), runner.Inline{Workers: workers}, 0, w.sc.Seed, jobs)
	tr.end(sid)
	if err != nil {
		return "", err
	}
	for _, err := range errs {
		if err != nil {
			return "", err
		}
	}
	w.noteRunner(m)
	r := core.SweepResult{Runs: runs, Par: m}
	var digest string
	tr.do("core.render", 0, 0, func(int) {
		_ = r.Render()
		digest = r.Digest()
	})
	w.stats = addStats(w.stats, st.Stats())
	return digest, nil
}

// runnerStats keeps the fan-out figures of the traced rounds.
type runnerStats struct {
	speedups  []float64
	maxWaitMS float64
}

func (r *runnerStats) noteRunner(m runner.Metrics) {
	r.speedups = append(r.speedups, m.Speedup())
	r.maxWaitMS = max(r.maxWaitMS, float64(m.MaxQueueWait())/1e6)
}

func (r *runnerStats) runnerLayers(m map[string]float64) string {
	m["runner.speedup"] = median(append([]float64(nil), r.speedups...))
	m["runner.max_queue_wait_ms"] = r.maxWaitMS
	return fmt.Sprintf("runner.speedup base: busy/wall, median of %d fan-out(s) on %d workers", len(r.speedups), workers)
}

func addStats(a, b resultcache.Stats) resultcache.Stats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Puts += b.Puts
	a.BytesRead += b.BytesRead
	a.BytesWritten += b.BytesWritten
	return a
}

func (w *sweepRun) traced(tr *tracer, budget time.Duration) (tracedOut, error) {
	out, err := tracedBatch(w, tr, budget)
	if err != nil {
		return out, err
	}
	out.notes = append(out.notes, cacheLayers(out.layers, w.stats, &w.counts, out.rounds)...)
	out.notes = append(out.notes, w.runnerLayers(out.layers))
	return out, nil
}

func (w *sweepRun) pins() map[string]string { return map[string]string{"digest": w.digest} }

func (w *sweepRun) prepare() (attempted, failed int) { return 0, 0 }

func (w *sweepRun) close() {}
