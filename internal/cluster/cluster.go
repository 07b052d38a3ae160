// Package cluster implements the paper's large-scale evaluation substrate
// (§6.3): 64 nodes each running one tailbench client/server pair locally
// (no inter-node traffic on the critical path), iterating in bulk
// synchronous parallel style — each client issues a fixed number of
// requests, then waits at a global barrier. Iteration time is therefore the
// *maximum* over nodes, which is what amplifies per-node tail latency into
// whole-application slowdown ("straggler effects").
//
// The paper ran this on a 64-node partition of Chameleon Cloud (dual-socket
// Haswell per node); we simulate each node as an independent machine whose
// application partition and noise partition share (Docker) or do not share
// (KVM) a kernel. Nodes are seeded independently, so maxima behave like
// real fleet maxima.
package cluster

import (
	"fmt"

	"ksa/internal/corpus"
	"ksa/internal/fault"
	"ksa/internal/kernel"
	"ksa/internal/platform"
	"ksa/internal/rng"
	"ksa/internal/runner"
	"ksa/internal/sim"
	"ksa/internal/syscalls"
	"ksa/internal/tailbench"
)

// Config describes one Figure 4 run.
type Config struct {
	// Nodes is the cluster size (paper: 64).
	Nodes int
	// App is the tailbench workload each node serves locally.
	App *tailbench.App
	// Kind selects the per-node isolation substrate.
	Kind platform.EnvKind
	// Contended co-runs the syscall corpus on each node's other partition.
	Contended bool
	// NoiseCorpus supplies the co-runner's programs (required if Contended).
	NoiseCorpus *corpus.Corpus
	// Iterations is the number of BSP iterations (paper: 50).
	Iterations int
	// RequestsPerIter is the fixed per-node request count per iteration.
	RequestsPerIter int
	// Concurrency is the number of outstanding requests the closed-loop
	// client keeps in flight (default: one per worker core). The paper's
	// cluster harness issues a fixed request count and barriers when they
	// complete, so iteration time tracks contended service capacity
	// directly.
	Concurrency int
	// Seed drives everything.
	Seed uint64
	// NodeMachine is one node's socket (default 24 cores / 64 GB).
	NodeMachine platform.Machine
	// Partitions per node (default 2: app + noise).
	Partitions int
	// NoiseIterGap throttles the co-runner (default 500µs).
	NoiseIterGap sim.Time
	// Faults, when non-nil, doses every node with the interference plan
	// for the whole run; each node's injection randomness derives from its
	// own split of Seed, so fleet maxima behave like independent nodes.
	Faults *fault.Plan
	// BarrierHop is the inter-node network barrier per-round latency
	// (default 15µs, a cluster interconnect).
	BarrierHop sim.Time
	// Workers bounds the OS threads that advance node simulations
	// concurrently (0 = GOMAXPROCS). Each node is an independent
	// single-threaded virtual-time world between barriers, so any worker
	// count — and any fan-out order — produces bit-identical results;
	// Workers only changes wall-clock time.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 64
	}
	if c.Iterations == 0 {
		c.Iterations = 10
	}
	if c.RequestsPerIter == 0 {
		c.RequestsPerIter = 200
	}

	if c.NodeMachine.Cores == 0 {
		c.NodeMachine = platform.Machine{Cores: 24, MemGB: 64}
	}
	if c.Partitions == 0 {
		c.Partitions = 2
	}
	if c.NoiseIterGap == 0 {
		c.NoiseIterGap = 500 * sim.Microsecond
	}
	if c.BarrierHop == 0 {
		c.BarrierHop = 15 * sim.Microsecond
	}
	return c
}

// Fingerprint renders the result-shaping configuration canonically, with
// defaults applied — the environment component of a result-cache key.
// Seed, Faults, and NoiseCorpus are excluded (they are their own key
// components), and Workers is excluded because worker count never changes
// a result bit.
func (c Config) Fingerprint() string {
	c = c.withDefaults()
	app := ""
	if c.App != nil {
		app = c.App.Name
	}
	conc := c.Concurrency
	if conc < 0 {
		conc = 0
	}
	return fmt.Sprintf("cluster/%s/%s/cont=%t/nodes=%d/iters=%d/reqs=%d/conc=%d/machine=%dc%gg/parts=%d/gap=%d/hop=%d",
		app, c.Kind, c.Contended, c.Nodes, c.Iterations, c.RequestsPerIter, conc,
		c.NodeMachine.Cores, c.NodeMachine.MemGB, c.Partitions,
		int64(c.NoiseIterGap), int64(c.BarrierHop))
}

// Result is the outcome of one cluster run.
type Result struct {
	App       string
	Env       string
	Contended bool
	// Runtime is the total virtual time for all iterations.
	Runtime sim.Time
	// IterTimes are the per-iteration times (max over nodes + barrier).
	IterTimes []sim.Time
	// MeanNodeTime is the average per-node per-iteration completion time —
	// the gap to IterTimes' mean is the straggler penalty.
	MeanNodeTime sim.Time
}

// StragglerFactor is mean(iteration time) / mean(node time): how much the
// barrier's max() amplifies per-node variability. 1.0 = no stragglers.
func (r *Result) StragglerFactor() float64 {
	if r.MeanNodeTime == 0 || len(r.IterTimes) == 0 {
		return 1
	}
	var sum sim.Time
	for _, t := range r.IterTimes {
		sum += t
	}
	mean := float64(sum) / float64(len(r.IterTimes))
	return mean / float64(r.MeanNodeTime)
}

// node is one simulated cluster node: an independent single-threaded
// virtual-time world with its own engine. Nodes interact only through the
// BSP barrier, which the orchestrator computes analytically, so node
// simulations advance on separate OS threads between barriers.
type node struct {
	eng   *sim.Engine
	env   *platform.Environment
	cores []platform.CoreRef
	procs []*syscalls.Proc
	src   *rng.Source

	issued int
	done   int
	target int
}

// debugHook, when set by tests, receives node 0's environment at the end
// of a Run.
var debugHook func(*platform.Environment)

// submitOrder, when set by tests, permutes the order nodes are handed to
// the worker pool each iteration; results must be invariant under it.
var submitOrder func(n int) []int

// Run executes the configured cluster experiment. Each BSP iteration fans
// the nodes across Workers OS threads; all nodes' iteration completion
// times are then merged (in node order) into the barrier release time
//
//	release = max(completion) + ReleaseLatencyFor(nodes, hop)
//
// at which the next iteration starts on every node's private engine. The
// merge is a pure max over virtual times, so worker count and scheduling
// order cannot leak into any result bit.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	if cfg.App == nil {
		panic("cluster: Config needs an App")
	}
	if cfg.Contended && cfg.NoiseCorpus == nil {
		panic("cluster: contended run needs a NoiseCorpus")
	}
	switch cfg.Kind {
	case platform.KindVMs, platform.KindLightVMs, platform.KindContainers:
	default:
		panic(fmt.Sprintf("cluster: unsupported kind %v", cfg.Kind))
	}

	per := cfg.NodeMachine.Cores / cfg.Partitions
	conc := cfg.Concurrency
	if conc <= 0 || conc > per {
		conc = per
	}

	// Per-node rng streams split from the root serially, in node order —
	// the node fan-out must never touch a shared stream.
	root := rng.New(cfg.Seed)
	srcs := make([]*rng.Source, cfg.Nodes)
	for i := range srcs {
		srcs[i] = root.Split(uint64(i) + 100)
	}
	nodes := make([]*node, cfg.Nodes)
	runner.Run(cfg.Nodes, cfg.Workers, func(i int) {
		nodes[i] = newNode(cfg, i, srcs[i], per)
	})

	res := Result{App: cfg.App.Name, Env: cfg.Kind.String(), Contended: cfg.Contended}
	releaseLat := sim.ReleaseLatencyFor(cfg.Nodes, cfg.BarrierHop)
	order := make([]int, cfg.Nodes)
	for i := range order {
		order[i] = i
	}
	if submitOrder != nil {
		order = submitOrder(cfg.Nodes)
	}
	ends := make([]sim.Time, cfg.Nodes)
	var release sim.Time // previous epoch's barrier release (first epoch: t=0)
	var nodeTimeSum sim.Time
	var nodeTimeCount int
	for iter := 0; iter < cfg.Iterations; iter++ {
		start := release
		runner.Run(cfg.Nodes, cfg.Workers, func(j int) {
			i := order[j]
			ends[i] = nodes[i].runIterationAt(cfg.App, conc, start)
		})
		last := start
		for _, e := range ends {
			if e > last {
				last = e
			}
			nodeTimeSum += e - start
		}
		nodeTimeCount += cfg.Nodes
		release = last + releaseLat
		res.IterTimes = append(res.IterTimes, release-start)
	}
	if debugHook != nil {
		debugHook(nodes[0].env)
	}
	res.Runtime = release
	if nodeTimeCount > 0 {
		res.MeanNodeTime = nodeTimeSum / sim.Time(nodeTimeCount)
	}
	return res
}

// newNode builds one node's private world: engine, environment, worker
// procs, and (when contended) the co-tenant noise stream.
func newNode(cfg Config, i int, src *rng.Source, per int) *node {
	eng := sim.NewEngine()
	env := platform.Build(eng, cfg.NodeMachine, cfg.Kind, cfg.Partitions, nil, src)
	n := &node{eng: eng, env: env, src: src.Split(7), target: cfg.RequestsPerIter}
	for c := 0; c < per; c++ {
		ref := env.Core(c)
		proc := syscalls.NewProc(eng)
		proc.Salt = uint64(i*64+c+1) * 0x9e3779b97f4a7c15
		proc.VMAs = 8
		n.cores = append(n.cores, ref)
		n.procs = append(n.procs, proc)
	}
	if cfg.Contended {
		noiseCores := make([]platform.CoreRef, 0, cfg.NodeMachine.Cores-per)
		for c := per; c < cfg.NodeMachine.Cores; c++ {
			noiseCores = append(noiseCores, env.Core(c))
		}
		skew := src.Split(8)
		tailbench.StartNoise(env, noiseCores, cfg.NoiseCorpus, sim.Forever,
			cfg.NoiseIterGap, func() sim.Time {
				return sim.Time(skew.Exp(float64(6 * sim.Microsecond)))
			})
	}
	if cfg.Faults != nil {
		// Nodes advance by Step until each iteration completes (the engine
		// is never drained), so a Forever-deadline runtime is safe here.
		fault.Attach(eng, src.Split(9), *cfg.Faults, env.Kernels...)
	}
	return n
}

// runIterationAt schedules the node's BSP iteration at the barrier release
// time `start` and advances the node's private engine until the last
// response arrives, returning the node's arrival-at-barrier time. Noise
// events between the previous completion and `start` are interleaved
// naturally: they sit in the same heap and run in timestamp order.
func (n *node) runIterationAt(app *tailbench.App, conc int, start sim.Time) sim.Time {
	n.issued, n.done = 0, 0
	finished := false
	var end sim.Time
	n.eng.At(start, func() {
		n.runIteration(app, conc, func() {
			finished = true
			end = n.eng.Now()
		})
	})
	for !finished {
		if !n.eng.Step() {
			panic("cluster: node engine drained before the iteration completed")
		}
	}
	return end
}

// runIteration issues the node's fixed request quota closed-loop (conc
// outstanding at a time) and calls complete when the last response arrives.
func (n *node) runIteration(app *tailbench.App, conc int, complete func()) {
	var issue func(w int)
	issue = func(w int) {
		n.issued++
		ref := n.cores[w]
		ctx := &syscalls.Ctx{Kern: ref.Kernel, Core: ref.Core, Proc: n.procs[w], Cov: syscalls.NopCoverage{}}
		ops := app.CompileRequest(ctx, n.src)
		ref.Kernel.Submit(ref.Core, &kernel.Task{
			Ops:       ops,
			AddrSpace: n.procs[w].MM,
			OnDone: func(sim.Time) {
				n.done++
				if n.issued < n.target {
					issue(w)
					return
				}
				if n.done == n.target {
					complete()
				}
			},
		})
	}
	if conc > n.target {
		conc = n.target
	}
	for w := 0; w < conc; w++ {
		issue(w)
	}
}
