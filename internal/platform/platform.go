// Package platform assembles evaluation environments: a native Linux-style
// single kernel, Docker-style containers sharing it, or the machine split
// into N kernels of 1/N of its cores and memory each — KVM-style virtual
// machines (Table 1's configurations), lightweight microVMs, or MultiK-style
// specialized kernels. Build is the one constructor. Every environment
// exposes the same flat view of cores so the harness deploys identically
// everywhere — the paper's "no dependence on evaluation environment"
// property (§3.2).
package platform

import (
	"fmt"
	"strings"

	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
)

// Machine describes the physical host: the hardware resources available to
// be partitioned. The paper's system-call platform is a 64-hardware-thread
// AMD EPYC with 32 GB devoted to the benchmark (Table 1).
type Machine struct {
	Cores int
	MemGB float64
}

// PaperMachine is the Table 1 host: 64 cores and 32 GB virtualized in
// every configuration.
var PaperMachine = Machine{Cores: 64, MemGB: 32}

// EnvKind discriminates environment flavors.
type EnvKind uint8

// Environment kinds.
const (
	KindNative EnvKind = iota
	KindVMs
	KindContainers
	// KindLightVMs is the "lightweight VM" environment: Firecracker / Kata /
	// Nabla-class systems the paper's related-work section names as the
	// interesting middle ground — container-like density and ergonomics
	// with VM-grade kernel isolation. The paper explicitly leaves
	// evaluating them as future work ("such technologies would be
	// interesting to evaluate in a similar fashion"); this model is that
	// evaluation's substrate.
	KindLightVMs
	// KindSpecialized is the MultiK-style per-tenant specialized
	// environment: n kernels partition the machine evenly (like VMs,
	// without a hypervisor tax), but every kernel is generated from a
	// workload profile — unreached syscalls unmapped, untouched lock slabs
	// dropped from the retained set, housekeeping and cache working sets
	// shrunk to the profiled footprint. It models co-deploying
	// per-application reduced kernels on one node, the surface-area endgame
	// the paper's isolation argument points at.
	KindSpecialized
)

// kindNames is the one name<->kind table: String, ParseKind, KindNames (and
// through them core.ParseEnvSpec and the CLIs' -env flags) all read it.
var kindNames = [...]string{
	KindNative:      "native",
	KindVMs:         "kvm",
	KindContainers:  "docker",
	KindLightVMs:    "lightvm",
	KindSpecialized: "specialized",
}

// String names the kind ("native", "kvm", "docker", "lightvm",
// "specialized").
func (k EnvKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// ParseKind is String's inverse: it reports the kind with the given name.
func ParseKind(name string) (EnvKind, bool) {
	for k, n := range kindNames {
		if n == name {
			return EnvKind(k), true
		}
	}
	return 0, false
}

// KindNames lists every kind name in table order ("native, kvm, ...") for
// usage text and error messages.
func KindNames() string { return strings.Join(kindNames[:], ", ") }

// CoreRef addresses one core of one kernel.
type CoreRef struct {
	Kernel *kernel.Kernel
	Core   int
}

// Environment is a deployed configuration: one or more kernels covering the
// machine, plus the flat core map the harness iterates over.
type Environment struct {
	Name    string
	Eng     *sim.Engine
	Kernels []*kernel.Kernel

	cores []CoreRef
}

// NumCores returns the machine-wide core count.
func (e *Environment) NumCores() int { return len(e.cores) }

// Core returns the global core i's kernel-local address.
func (e *Environment) Core(i int) CoreRef { return e.cores[i] }

// DefaultVirtModel returns the KVM-style overhead model: a bounded,
// hardware-determined tax (§4.3's first observation). The host block queue
// is supplied by the environment so all VMs share one device.
func DefaultVirtModel(host *sim.Semaphore) *kernel.VirtModel {
	return &kernel.VirtModel{
		PerTaskOverhead: 400 * sim.Nanosecond,
		// Nested paging makes in-kernel work measurably slower (EPT walks
		// on TLB misses); ~1.3x is in line with published guest-kernel
		// slowdowns for paging-heavy paths.
		ComputeDilation: 1.3,
		ExitCost:        sim.FromMicros(1.3),
		HostBlockQueue:  host,
		VirtioRelay:     sim.FromMicros(24),
		// Host residency: ticks/IRQs/housekeeping on the pinned pCPU, each
		// burst also costing an exit. Bounded and light-tailed — the host
		// runs no tenant workload.
		HostNoiseGap:   sim.FromMillis(2.2),
		HostNoiseMin:   sim.FromMicros(55),
		HostNoiseMax:   sim.FromMicros(500),
		HostNoiseAlpha: 1.8,
	}
}

// Build deploys an environment of the given kind on m, drawing all of its
// construction randomness from src. Native and docker run one kernel over
// the whole machine, docker's tuned for units live containers; kvm,
// lightvm and specialized split the machine into units kernels of 1/units
// of the cores and memory each, which units must divide. red, applied
// only on specialized, is the reduction every tenant kernel is generated
// from; nil deploys full-surface kernels — pure MultiK partitioning, the
// like-for-like baseline. Build panics on an unknown kind.
func Build(eng *sim.Engine, m Machine, kind EnvKind, units int, red *kernel.Reduction, src *rng.Source) *Environment {
	switch kind {
	case KindNative:
		return FromKernel(eng, kernel.New(eng, kernel.Config{
			Name:  "native",
			Cores: m.Cores,
			MemGB: m.MemGB,
		}, src.Split(0x4e415456)))
	case KindContainers:
		// One shared kernel manages the whole machine; each container
		// contributes cgroup/memcg housekeeping to it and pays a small
		// per-entry namespace indirection. Medians stay native-like, but
		// the shared kernel's noise grows mildly with the container count
		// — Table 3's worst-case effect.
		if units <= 0 {
			panic("platform: container count must be positive")
		}
		e := FromKernel(eng, kernel.New(eng, kernel.Config{
			Name:   fmt.Sprintf("docker-%d", units),
			Cores:  m.Cores,
			MemGB:  m.MemGB,
			Params: ContainerParams(m, units),
		}, src.Split(uint64(units)+0x444f434b)))
		e.Name = fmt.Sprintf("docker-%dx%d", units, m.Cores/units)
		return e
	case KindVMs:
		return partition(eng, m, units, "kvm", "vm", 0x564d, src, virtualized(eng, DefaultVirtModel))
	case KindLightVMs:
		return partition(eng, m, units, "lightvm", "microvm", 0x4c56, src, virtualized(eng, LightVirtModel))
	case KindSpecialized:
		// Co-located kernels bypass a hypervisor but still share the
		// node's one physical disk: block I/O contends on a node-wide
		// queue. Unlike the VM environments, no host-side I/O scheduler
		// sits between the kernels and the device to coalesce and re-order
		// submissions, so fewer effective slots are in flight (4 versus
		// the host relay's 8). This is the residual shared surface MultiK
		// cannot specialize away.
		node := sim.NewSemaphore(eng, "node-blk", 4)
		return partition(eng, m, units, "spec", "spec", 0x5350, src, func(c *kernel.Config) {
			c.Reduction = red
			c.SharedBlockDev = node
		})
	}
	panic(fmt.Sprintf("platform: unknown environment kind %v", kind))
}

// virtualized is the VM kinds' per-kernel model: pinned vCPUs paying the
// given hypervisor tax, and a virtio disk relayed through the one host
// block device every guest shares.
func virtualized(eng *sim.Engine, virt func(*sim.Semaphore) *kernel.VirtModel) func(*kernel.Config) {
	host := sim.NewSemaphore(eng, "host-blk", 8)
	return func(c *kernel.Config) { c.Virt = virt(host) }
}

// partition splits m into n kernels with 1/n of the cores and memory each:
// the environment is named "<env>-<n>x<cores per kernel>", kernel i is
// "<kern><i>" seeded from src.Split(i+salt), and model attaches the kind's
// isolation model to every kernel's config.
func partition(eng *sim.Engine, m Machine, n int, env, kern string, salt uint64,
	src *rng.Source, model func(*kernel.Config)) *Environment {
	if n <= 0 || m.Cores%n != 0 {
		panic(fmt.Sprintf("platform: %d %s kernels do not evenly partition %d cores", n, env, m.Cores))
	}
	coresPer := m.Cores / n
	e := &Environment{
		Name:    fmt.Sprintf("%s-%dx%d", env, n, coresPer),
		Eng:     eng,
		Kernels: make([]*kernel.Kernel, 0, n),
		cores:   make([]CoreRef, 0, m.Cores),
	}
	for i := 0; i < n; i++ {
		cfg := kernel.Config{
			Name:  fmt.Sprintf("%s%d", kern, i),
			Cores: coresPer,
			MemGB: m.MemGB / float64(n),
		}
		model(&cfg)
		k := kernel.New(eng, cfg, src.Split(uint64(i)+salt))
		e.Kernels = append(e.Kernels, k)
		for c := 0; c < coresPer; c++ {
			e.cores = append(e.cores, CoreRef{Kernel: k, Core: c})
		}
	}
	return e
}

// FromKernel wraps a pre-built kernel as a single-kernel environment named
// after it — Build's native and docker path, and the ablation studies that
// need full control over kernel parameters.
func FromKernel(eng *sim.Engine, k *kernel.Kernel) *Environment {
	e := &Environment{Name: k.Name(), Eng: eng, Kernels: []*kernel.Kernel{k},
		cores: make([]CoreRef, 0, k.NumCores())}
	for c := 0; c < k.NumCores(); c++ {
		e.cores = append(e.cores, CoreRef{Kernel: k, Core: c})
	}
	return e
}

// ContainerParams is the shared kernel's tuning under n live containers:
// each container's cgroup scanning densifies housekeeping and extends the
// worst bursts slightly, and namespace/cgroup indirection adds to every
// kernel entry.
func ContainerParams(m Machine, n int) kernel.Params {
	par := kernel.DefaultParams(m.Cores, m.MemGB)
	par.NoiseMeanGap = sim.Time(float64(par.NoiseMeanGap) / (1 + 0.012*float64(n)))
	par.NoiseMaxBurst = sim.Time(float64(par.NoiseMaxBurst) * (1 + 0.004*float64(n)))
	par.EntryOverhead = 40 * sim.Nanosecond
	return par
}

// VMConfig is one row of Table 1.
type VMConfig struct {
	VMs      int
	CoresPer int
	MemGBPer float64
}

// VMConfigTable returns Table 1: the spectrum of VM configurations that
// virtualize the machine's 64 cores and 32 GB.
func VMConfigTable(m Machine) []VMConfig {
	var out []VMConfig
	for n := 1; n <= m.Cores; n *= 2 {
		out = append(out, VMConfig{
			VMs:      n,
			CoresPer: m.Cores / n,
			MemGBPer: m.MemGB / float64(n),
		})
	}
	return out
}
