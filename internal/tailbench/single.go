package tailbench

import (
	"ksa/internal/corpus"
	"ksa/internal/fault"
	"ksa/internal/kernel"
	"ksa/internal/platform"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/syscalls"
)

// SingleNodeConfig describes one §6.2 deployment: a 64-core machine split
// into 4 partitions of 16 cores; partition 0 serves one tailbench app, the
// other three optionally run the 48-core varbench noise corpus.
type SingleNodeConfig struct {
	// Kind selects the isolation substrate: KVM VMs or Docker containers in
	// Figure 3, or any other kind platform.Build deploys.
	Kind platform.EnvKind
	// App is the tailbench workload to serve.
	App *App
	// Contended co-runs the 48-core syscall corpus.
	Contended bool
	// NoiseCorpus supplies the syscall programs for the noise tenant (must
	// be non-nil when Contended).
	NoiseCorpus *corpus.Corpus
	// Server configures the measurement.
	Server ServerOptions
	// Seed drives environment construction.
	Seed uint64
	// Machine defaults to the paper's 64-core/32GB host.
	Machine platform.Machine
	// Partitions defaults to 4 (1 app + 3 noise).
	Partitions int
	// NoiseIterGap is the noise tenant's per-iteration overhead
	// (default 500µs).
	NoiseIterGap sim.Time
	// Faults, when non-nil, doses the environment with the interference
	// plan for the warmup+measure window (injection seeds derive from
	// Seed). Composable with Contended: corpus noise and injected noise
	// then coexist.
	Faults *fault.Plan
}

// MeasureServiceTime runs requests back-to-back on one idle core of a
// fresh environment of the given kind and returns the mean request time.
// The single-node harness uses it to pick an arrival rate that genuinely
// offers ~75% utilization, including each substrate's kernel costs.
func MeasureServiceTime(kind platform.EnvKind, app *App, machine platform.Machine, parts int, seed uint64) sim.Time {
	eng := sim.NewEngine()
	src := rng.New(seed ^ 0xca11b)
	env := platform.Build(eng, machine, kind, parts, nil, src)
	ref := env.Core(0)
	proc := syscalls.NewProc(eng)
	proc.Salt = 0x7357
	proc.VMAs = 8
	reqSrc := src.Split(1)
	const reqs = 256
	var total sim.Time
	var run func(i int)
	run = func(i int) {
		if i >= reqs {
			return
		}
		ctx := &syscalls.Ctx{Kern: ref.Kernel, Core: ref.Core, Proc: proc, Cov: syscalls.NopCoverage{}}
		ops := app.CompileRequest(ctx, reqSrc)
		ref.Kernel.Submit(ref.Core, &kernel.Task{Ops: ops, AddrSpace: proc.MM,
			OnDone: func(e sim.Time) { total += e; run(i + 1) }})
	}
	run(0)
	eng.Run()
	return total / reqs
}

// RunSingleNode executes one single-node tail-latency measurement (one bar
// of Figure 3) and returns the request-latency measurement.
func RunSingleNode(cfg SingleNodeConfig) Measurement {
	if cfg.Machine.Cores == 0 {
		cfg.Machine = platform.PaperMachine
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 4
	}
	if cfg.App == nil {
		panic("tailbench: SingleNodeConfig needs an App")
	}
	if cfg.Contended && cfg.NoiseCorpus == nil {
		panic("tailbench: contended run needs a NoiseCorpus")
	}
	eng := sim.NewEngine()
	src := rng.New(cfg.Seed)
	env := platform.Build(eng, cfg.Machine, cfg.Kind, cfg.Partitions, nil, src)
	per := cfg.Machine.Cores / cfg.Partitions
	appCores := make([]platform.CoreRef, 0, per)
	for i := 0; i < per; i++ {
		appCores = append(appCores, env.Core(i))
	}
	opts := cfg.Server
	if opts.Measure == 0 {
		opts = DefaultServerOptions(cfg.Seed)
	}
	if opts.MeanService == 0 {
		opts.MeanService = MeasureServiceTime(cfg.Kind, cfg.App, cfg.Machine, cfg.Partitions, cfg.Seed)
	}
	if cfg.Faults != nil {
		fsrc := rng.New(cfg.Seed ^ 0xfa17).Split(1)
		fault.AttachUntil(eng, fsrc, *cfg.Faults, eng.Now()+opts.Warmup+opts.Measure, env.Kernels...)
	}
	collect := RunServer(env, appCores, cfg.App, opts)
	if cfg.Contended {
		noiseCores := make([]platform.CoreRef, 0, cfg.Machine.Cores-per)
		for i := per; i < cfg.Machine.Cores; i++ {
			noiseCores = append(noiseCores, env.Core(i))
		}
		skewSrc := src.Split(0x6e736b)
		deadline := eng.Now() + opts.Warmup + opts.Measure
		gap := cfg.NoiseIterGap
		if gap == 0 {
			gap = 500 * sim.Microsecond
		}
		StartNoise(env, noiseCores, cfg.NoiseCorpus, deadline, gap, func() sim.Time {
			return sim.Time(skewSrc.Exp(float64(6 * sim.Microsecond)))
		})
	}
	eng.Run()
	m := collect()
	m.Contended = cfg.Contended
	m.Env = cfg.Kind.String()
	return m
}

// Fig3Row holds one application's Figure 3 numbers: isolated and contended
// p99 for both substrates, and the relative increases (Figure 3(c)).
type Fig3Row struct {
	App                         string
	KVMIso, KVMCont             float64 // p99 µs
	DockerIso, DockerCont       float64
	KVMIncrease, DockerIncrease float64 // percent
}

// RunFig3App produces one row of Figure 3 for the given app.
func RunFig3App(app *App, noise *corpus.Corpus, server ServerOptions, seed uint64) Fig3Row {
	row := Fig3Row{App: app.Name}
	run := func(kind platform.EnvKind, contended bool) float64 {
		m := RunSingleNode(SingleNodeConfig{
			Kind: kind, App: app, Contended: contended,
			NoiseCorpus: noise, Server: server, Seed: seed,
		})
		return m.P99
	}
	row.KVMIso = run(platform.KindVMs, false)
	row.KVMCont = run(platform.KindVMs, true)
	row.DockerIso = run(platform.KindContainers, false)
	row.DockerCont = run(platform.KindContainers, true)
	if row.KVMIso > 0 {
		row.KVMIncrease = 100 * (row.KVMCont - row.KVMIso) / row.KVMIso
	}
	if row.DockerIso > 0 {
		row.DockerIncrease = 100 * (row.DockerCont - row.DockerIso) / row.DockerIso
	}
	return row
}
