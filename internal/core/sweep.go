package core

import (
	"context"
	"fmt"

	"ksa/internal/corpus"
	"ksa/internal/fault"
	"ksa/internal/kernel"
	"ksa/internal/platform"
	"ksa/internal/resultcache"
	"ksa/internal/rng"
	"ksa/internal/runner"
	"ksa/internal/sim"
	"ksa/internal/specialize"
	"ksa/internal/syscalls"
	"ksa/internal/trace"
	"ksa/internal/varbench"
)

// EnvSpec names one environment of a sweep: an isolation substrate and its
// unit count (VMs/containers partitioning the machine; ignored for
// native).
type EnvSpec struct {
	Kind  platform.EnvKind
	Units int
	// Profile, for KindSpecialized, is the workload profile the per-tenant
	// kernels are generated from. PlanSweep fills it (profiling the sweep's
	// own corpus) when the caller leaves it nil; its Sig() joins the cell's
	// cache key, so specialized results never collide with full-surface
	// entries or with kernels generated from a different profile. Nil at
	// build time deploys full-surface kernels (pure MultiK partitioning).
	// It does not participate in String(), which stays the stable job-key
	// component.
	Profile *specialize.Profile
}

// String renders the spec as the stable job-key component, e.g. "native",
// "kvm-8", "docker-64".
func (e EnvSpec) String() string {
	if e.Kind == platform.KindNative {
		return e.Kind.String()
	}
	return fmt.Sprintf("%s-%d", e.Kind, e.Units)
}

// Build constructs the environment on eng, drawing all of its
// construction randomness from seed. A specialized spec's Profile is
// resolved to the reduction its tenant kernels are generated from.
func (e EnvSpec) Build(eng *sim.Engine, m platform.Machine, seed uint64) *platform.Environment {
	var red *kernel.Reduction
	if e.Kind == platform.KindSpecialized && e.Profile != nil {
		red = specialize.Specialize(e.Profile, syscalls.Default())
	}
	return platform.Build(eng, m, e.Kind, e.Units, red, rng.New(seed))
}

// SweepOptions configures RunSweep: a dense environment × corpus × trial
// grid of independent varbench runs.
type SweepOptions struct {
	// Scale supplies the corpus (unless Corpus overrides it), the harness
	// iteration counts, the root seed, and the Parallel worker bound.
	Scale Scale
	// Machine is the host each environment partitions (default: the
	// paper's 64-core/32GB box).
	Machine platform.Machine
	// Envs are the environments to sweep.
	Envs []EnvSpec
	// Trials is the number of independent repetitions per environment
	// (default 1). Trial t of environment e runs with the seed derived
	// from the job key "<env>/trial=<t>" — never from a shared stream.
	Trials int
	// Trace attaches a tracer to every kernel of every run, so each
	// SweepRun carries blame records.
	Trace bool
	// Corpus, when non-nil, replaces the Scale-generated corpus (e.g. a
	// corpus file loaded by cmd/varbench).
	Corpus *corpus.Corpus
	// Faults, when non-nil, doses every run with the interference plan.
	// The plan's signature becomes part of each job key, so faulted and
	// fault-free sweeps of the same grid derive distinct seeds and can
	// coexist in one process without key collisions.
	Faults *fault.Plan

	// Progress, when non-nil, is called once per completed cell — from
	// worker goroutines, possibly several at once, so it must be safe for
	// concurrent use. It exists for observers (the daemon's event stream);
	// it must not mutate anything the sweep reads.
	Progress func(SweepProgress)
}

// SweepProgress describes one completed cell of a running sweep.
type SweepProgress struct {
	// Index/Total locate the cell in the job list (environment-major,
	// trial-minor).
	Index, Total int
	// Key is the cell's job key.
	Key string
	// CacheHit reports whether the cell was served from the result store
	// rather than simulated.
	CacheHit bool
	// Run is the completed cell itself.
	Run SweepRun
}

// SweepRun is one (environment, trial) cell of a sweep.
type SweepRun struct {
	Env   EnvSpec
	Trial int
	// FaultSig is the interference plan's signature when the sweep ran
	// under SweepOptions.Faults; empty otherwise.
	FaultSig string
	// Seed is the job's derived private seed.
	Seed uint64
	Res  *varbench.Result
}

// Key returns the cell's job key.
func (r SweepRun) Key() string {
	env := r.Env.String()
	if r.FaultSig != "" {
		env += "/fault=" + r.FaultSig
	}
	return runner.SweepKey(env, r.Trial)
}

// SweepResult holds a sweep's runs in job-key order (environment-major,
// trial-minor — never completion order) plus the fan-out metrics.
type SweepResult struct {
	Runs []SweepRun
	Par  runner.Metrics
}

// SweepCell is one enumerated cell of a sweep grid: its position, its
// job key, and its derived seed — everything that identifies the cell
// without running it. Cells enumerate environment-major, trial-minor, so
// slice order is job-key order (the canonical merge order).
type SweepCell struct {
	// Index is the cell's position in the grid enumeration.
	Index int
	// Env and Trial locate the cell in the grid.
	Env   EnvSpec
	Trial int
	// FaultSig is the sweep's interference-plan signature ("" clean).
	FaultSig string
	// JobKey is the cell's stable identity, e.g. "kvm-8/trial=2".
	JobKey string
	// Seed is the cell's private seed, derived from the root seed and
	// JobKey alone — never from position or worker.
	Seed uint64
}

// SweepPlan is a sweep grid resolved to its cells plus the shared inputs
// every cell needs (normalized options, corpus, corpus digest). Planning
// is cheap and deterministic; it exists so that the in-process sweep, the
// daemon's worker-mode cell endpoint, and the distributed coordinator all
// enumerate exactly the same cells with exactly the same keys — the
// bit-identity contract reduced to sharing one code path.
type SweepPlan struct {
	// Opts is the normalized sweep (machine and trials defaulted, corpus
	// filled in).
	Opts SweepOptions
	// Cells is the grid in job-key order.
	Cells []SweepCell
	// digest is the corpus cache digest ("" when the cache is off).
	digest string
}

// PlanSweep normalizes o and enumerates its grid.
func PlanSweep(o SweepOptions) SweepPlan {
	if o.Machine.Cores == 0 {
		o.Machine = platform.PaperMachine
	}
	if o.Trials <= 0 {
		o.Trials = 1
	}
	if o.Corpus == nil {
		c, _ := o.Scale.GenerateCorpus()
		o.Corpus = c
	}
	// Specialized environments need the workload profile their per-tenant
	// kernels are generated from. Profile the sweep's own corpus once and
	// attach it to every specialized spec that arrived without one — on a
	// copy, so the caller's Envs slice is never mutated. The profiling seed
	// derives from a fixed key, not the cell grid, so every execution mode
	// (serial, parallel, daemon, distributed) generates the same profile and
	// therefore the same kernels and cache keys.
	for i, env := range o.Envs {
		if env.Kind == platform.KindSpecialized && env.Profile == nil {
			prof := specialize.ProfileCorpus(o.Corpus, syscalls.Default(),
				runner.DeriveSeed(o.Scale.Seed, "specialize/profile"), 0)
			envs := make([]EnvSpec, len(o.Envs))
			copy(envs, o.Envs)
			for j := i; j < len(envs); j++ {
				if envs[j].Kind == platform.KindSpecialized && envs[j].Profile == nil {
					envs[j].Profile = prof
				}
			}
			o.Envs = envs
			break
		}
	}
	p := SweepPlan{Opts: o}
	if p.cache() != nil {
		p.digest = o.Scale.corpusDigest(o.Corpus)
	}
	faultSig := faultSigOf(o.Faults)
	for _, env := range o.Envs {
		envKey := env.String()
		if faultSig != "" {
			envKey += "/fault=" + faultSig
		}
		for t := 0; t < o.Trials; t++ {
			jobKey := runner.SweepKey(envKey, t)
			p.Cells = append(p.Cells, SweepCell{
				Index: len(p.Cells), Env: env, Trial: t, FaultSig: faultSig,
				JobKey: jobKey, Seed: runner.DeriveSeed(o.Scale.Seed, jobKey),
			})
		}
	}
	return p
}

// cache returns the plan's result store, nil for traced sweeps (live
// tracers are not serializable).
func (p SweepPlan) cache() *resultcache.Store {
	if p.Opts.Trace {
		return nil
	}
	return p.Opts.Scale.Cache
}

// CacheKey returns the result-store key addressing one cell. The trial
// number is deliberately absent: the derived seed is the cell's entire
// randomness, so a cell is addressed by exactly the inputs that determine
// its bits.
func (p SweepPlan) CacheKey(c SweepCell) resultcache.Key {
	opts := p.Opts.Scale.vbOptions()
	opts.Seed = c.Seed
	return varbenchKey(c.Env, p.Opts.Machine, opts, c.FaultSig, p.digest, c.Seed)
}

// RunCell executes exactly one cell — through the cache when configured —
// and reports whether it was served from the store. This is the single
// cell code path shared by every execution mode: the serial baseline, the
// in-process parallel fan-out, the daemon's pool, and a remote worker
// answering a coordinator all call here, which is what makes their
// outputs bit-identical by construction.
func (p SweepPlan) RunCell(c SweepCell) (SweepRun, bool) {
	o := p.Opts
	fresh := func() *varbench.Result {
		eng := sim.NewEngine()
		opts := o.Scale.vbOptions()
		opts.Seed = c.Seed
		if o.Trace {
			opts.Trace = &trace.Options{}
		}
		opts.Faults = o.Faults
		return varbench.Run(c.Env.Build(eng, o.Machine, c.Seed), o.Corpus, opts)
	}
	var res *varbench.Result
	hit := false
	if cache := p.cache(); cache != nil {
		res, hit = cachedVarbenchHit(cache, o.Scale.CacheVerify, p.CacheKey(c), fresh)
	} else {
		res = fresh()
	}
	run := SweepRun{Env: c.Env, Trial: c.Trial, FaultSig: c.FaultSig, Seed: c.Seed, Res: res}
	if o.Progress != nil {
		o.Progress(SweepProgress{
			Index: c.Index, Total: len(p.Cells), Key: c.JobKey, CacheHit: hit, Run: run,
		})
	}
	return run, hit
}

// RunSweep executes the environment × trial grid, fanning the independent
// simulations across Scale.Parallel workers. The output is bit-identical
// for every worker count: job order fixes the merge order and per-key seed
// derivation fixes each run's randomness.
//
// With Scale.Cache set (and Trace off — live tracers are not
// serializable), each worker consults the content-addressed store before
// simulating and writes through after, so an interrupted sweep resumes
// executing only the missing cells and a repeated sweep is served entirely
// from cache.
func RunSweep(o SweepOptions) SweepResult {
	res, _ := RunSweepContext(context.Background(), o)
	return res
}

// RunSweepContext is RunSweep with cancellation. Once ctx is done no new
// cell starts (queued cells are abandoned promptly), in-flight cells drain
// to completion — and, with a cache, stay durable — and the truncated
// result comes back with ctx's error. Cells are claimed in job-key order,
// so the completed cells are exactly the prefix [0, Par.Completed) of the
// grid, each bit-identical to the same cell of an uninterrupted serial
// run; rerunning the sweep against the same cache resumes from there.
func RunSweepContext(ctx context.Context, o SweepOptions) (SweepResult, error) {
	p := PlanSweep(o)
	before := o.Scale.cacheSnapshot()
	jobs := make([]runner.Job[SweepRun], len(p.Cells))
	for i, cell := range p.Cells {
		cell := cell
		jobs[i] = runner.Job[SweepRun]{
			Key: cell.JobKey,
			Run: func(seed uint64) SweepRun {
				// seed == cell.Seed by construction: both are
				// DeriveSeed(root, JobKey). The plan's copy exists so remote
				// workers can verify it without re-deriving.
				run, _ := p.RunCell(cell)
				return run
			},
		}
	}
	runs, m, err := runner.SweepOn(ctx, o.exec(), o.Scale.Priority, o.Scale.Seed, jobs)
	fillCacheMetrics(&m, p.cache(), before)
	if err != nil {
		runs = runs[:m.Completed]
	}
	return SweepResult{Runs: runs, Par: m}, err
}

// exec resolves the sweep's executor (see Scale.exec).
func (o SweepOptions) exec() runner.Executor {
	return o.Scale.exec()
}
