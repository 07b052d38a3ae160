// Package tailbench models the paper's application-level evaluation (§6):
// the eight tailbench workloads as request/service models with per-app
// kernel-interaction profiles, served at ~75% utilization, measured by
// 99th-percentile request latency — deployed either in a KVM VM or a Docker
// container, with or without a 48-core system-call "noise" tenant.
//
// We do not run the real xapian/moses/silo binaries (unavailable here and
// irrelevant to the mechanism); what the paper's argument depends on is how
// often and in what way each application enters the kernel, how sensitive
// it is to VM exits, and how much disk I/O it does — exactly the parameters
// each App profile captures. DESIGN.md documents this substitution.
package tailbench

import (
	"math"

	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/syscalls"
)

// App is one tailbench workload's kernel-interaction profile.
type App struct {
	// Name matches the paper's Table 4.
	Name string
	// Desc is the paper's one-line description.
	Desc string

	// ServiceMean is the mean on-CPU service time per request; ServiceSigma
	// the lognormal spread.
	ServiceMean  sim.Time
	ServiceSigma float64

	// SyscallsPerReq is how many kernel entries a request makes.
	SyscallsPerReq int
	// Mix lists the syscalls a request draws from (weighted).
	Mix []MixEntry
	// ExitsPerReq is the number of VM exits a request's user-space section
	// triggers under virtualization (TLB/cache-hostile workloads like silo
	// exit frequently); zero for exit-friendly apps.
	ExitsPerReq int
	// IOPerReq is the expected number of block-device round trips per
	// request (shore's disk residency).
	IOPerReq float64
}

// MixEntry weights one syscall in an app's per-request mix. Args, when
// non-nil, pins the call's arguments (servers exercise specific fast paths
// — e.g. futexes that wake rather than block); nil draws random arguments.
type MixEntry struct {
	Syscall string
	Weight  float64
	Args    []uint64
}

// Apps returns the paper's Table 4 workloads, in paper order.
func Apps() []*App {
	return []*App{
		{
			Name: "xapian", Desc: "search engine",
			ServiceMean: sim.FromMicros(900), ServiceSigma: 0.5,
			SyscallsPerReq: 16,
			Mix: []MixEntry{
				{"read", 5, []uint64{3, 16384}}, {"pread64", 3, []uint64{3, 16384}},
				{"mmap", 2, []uint64{65536, 0}}, {"munmap", 0.5, []uint64{65536}},
				{"futex", 3, []uint64{7, 1}}, {"open", 1, []uint64{5, 0}},
				{"close", 1, nil}, {"lseek", 2, nil},
			},
		},
		{
			Name: "masstree", Desc: "in-memory key-value store",
			ServiceMean: sim.FromMicros(220), ServiceSigma: 0.4,
			SyscallsPerReq: 5,
			Mix: []MixEntry{
				{"futex", 2, []uint64{5, 1}}, {"futex", 2, []uint64{9, 2}},
				{"epoll_wait", 2, []uint64{4, 0}},
				{"read", 1, []uint64{3, 4096}}, {"write", 1, []uint64{3, 4096}},
			},
		},
		{
			Name: "moses", Desc: "statistical machine translation system",
			ServiceMean: sim.FromMicros(2600), ServiceSigma: 0.6,
			SyscallsPerReq: 28,
			Mix: []MixEntry{
				{"mmap", 4, []uint64{1 << 20, 0}}, {"munmap", 1.2, []uint64{1 << 20}},
				{"brk", 3, []uint64{1 << 18}}, {"madvise", 0.6, []uint64{1 << 20, 4}},
				{"read", 4, []uint64{3, 32768}}, {"futex", 3, []uint64{11, 1}},
				{"stat", 1, nil},
			},
		},
		{
			Name: "sphinx", Desc: "speech recognition system",
			ServiceMean: sim.FromMicros(3800), ServiceSigma: 0.6,
			SyscallsPerReq: 32,
			Mix: []MixEntry{
				{"mmap", 4, []uint64{1 << 19, 0}}, {"munmap", 1.4, []uint64{1 << 19}},
				{"brk", 2, []uint64{1 << 17}}, {"read", 5, []uint64{3, 32768}},
				{"futex", 2, []uint64{13, 1}}, {"mprotect", 0.5, []uint64{1 << 16, 1}},
			},
		},
		{
			Name: "img-dnn", Desc: "handwriting image recognition program",
			ServiceMean: sim.FromMicros(750), ServiceSigma: 0.45,
			SyscallsPerReq: 9,
			Mix: []MixEntry{
				{"read", 3, []uint64{3, 8192}}, {"futex", 3, []uint64{5, 1}},
				{"mmap", 1, []uint64{1 << 16, 0}}, {"write", 1, []uint64{3, 8192}},
			},
			ExitsPerReq: 1,
		},
		{
			Name: "specjbb", Desc: "Java middleware benchmark",
			ServiceMean: sim.FromMicros(550), ServiceSigma: 0.5,
			SyscallsPerReq: 9,
			Mix: []MixEntry{
				{"futex", 3, []uint64{5, 1}}, {"futex", 2, []uint64{7, 2}},
				{"mprotect", 0.08, []uint64{1 << 18, 1}}, {"mmap", 0.6, []uint64{1 << 18, 0}},
				{"madvise", 0.08, []uint64{1 << 18, 4}},
				{"read", 1, []uint64{3, 4096}}, {"write", 1, []uint64{3, 4096}},
			},
			ExitsPerReq: 2,
		},
		{
			Name: "silo", Desc: "in-memory transactional database",
			ServiceMean: sim.FromMicros(160), ServiceSigma: 0.4,
			SyscallsPerReq: 3,
			Mix: []MixEntry{
				{"futex", 2, []uint64{3, 2}}, {"read", 1, []uint64{3, 2048}},
				{"write", 1, []uint64{3, 2048}},
			},
			// OLTP working sets thrash guest TLBs and have exit-prone code
			// paths (§6.3): hardware virtualization overhead dominates.
			ExitsPerReq: 9,
		},
		{
			Name: "shore", Desc: "disk-based transactional database",
			ServiceMean: sim.FromMicros(420), ServiceSigma: 0.5,
			SyscallsPerReq: 11,
			Mix: []MixEntry{
				{"pread64", 3, []uint64{3, 8192}}, {"pwrite64", 2, []uint64{3, 8192}},
				{"fsync", 0.7, nil}, {"futex", 2, []uint64{5, 1}}, {"lseek", 2, nil},
			},
			IOPerReq: 1.6,
		},
	}
}

// AppByName returns the named app profile, or nil.
func AppByName(name string) *App {
	for _, a := range Apps() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// EstServiceTime returns a rough per-request total service estimate used to
// pick the arrival rate for ~75% utilization: user compute plus a nominal
// per-syscall and per-IO kernel cost.
func (a *App) EstServiceTime() sim.Time {
	est := a.ServiceMean +
		sim.Time(a.SyscallsPerReq)*sim.FromMicros(2.5) +
		sim.Time(a.IOPerReq*float64(sim.FromMicros(110)))
	return est
}

// CompileRequest builds one request's micro-op sequence: the user-space
// service time sliced around the request's kernel entries. The returned ops
// run as a single kernel task on one worker core. (User-space compute is
// modeled as kernel ops with zero lock footprint — it consumes the core and
// is subject to the same steal, which is physically right.)
func (a *App) CompileRequest(ctx *syscalls.Ctx, src *rng.Source) []kernel.Op {
	tab := syscalls.Default()
	service := sim.Time(src.LogNormal(logMeanFor(a.ServiceMean, a.ServiceSigma), a.ServiceSigma))
	slices := a.SyscallsPerReq + 1
	per := service / sim.Time(slices)

	weights := make([]float64, len(a.Mix))
	for i, m := range a.Mix {
		weights[i] = m.Weight
	}

	var l kernel.OpList
	for i := 0; i < a.SyscallsPerReq; i++ {
		// User-space slice; spread the app's exit load across slices.
		exits := 0
		if a.ExitsPerReq > 0 && i < a.ExitsPerReq {
			exits = 1
		}
		l.UserCompute(per, exits)
		m := a.Mix[rng.WeightedPick(src, weights)]
		spec := tab.Lookup(m.Syscall)
		if spec == nil {
			panic("tailbench: unknown syscall in mix: " + m.Syscall)
		}
		args := make([]uint64, len(spec.Args))
		for j := range args {
			if m.Args != nil && j < len(m.Args) {
				args[j] = m.Args[j]
			} else {
				args[j] = src.Uint64()
			}
		}
		spec.Compile(ctx, &l, args)
	}
	l.UserCompute(service-per*sim.Time(a.SyscallsPerReq), 0)
	// Disk residency.
	ios := int(a.IOPerReq)
	if src.Float64() < a.IOPerReq-float64(ios) {
		ios++
	}
	for i := 0; i < ios; i++ {
		l.BlockIO(0)
	}
	return l.Ops()
}

// logMeanFor returns the lognormal mu such that the distribution's mean
// equals mean.
func logMeanFor(mean sim.Time, sigma float64) float64 {
	return math.Log(float64(mean)) - sigma*sigma/2
}
