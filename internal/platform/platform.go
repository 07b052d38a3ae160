// Package platform assembles evaluation environments: a native Linux-style
// single kernel, a set of KVM-style virtual machines (Table 1's
// configurations), or Docker-style containers sharing one kernel. All three
// expose the same flat view of cores so the harness deploys identically
// everywhere — the paper's "no dependence on evaluation environment"
// property (§3.2).
package platform

import (
	"fmt"

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
)

// String names the kind ("native", "kvm", "docker").
func (k EnvKind) String() string {
	switch k {
	case KindNative:
		return "native"
	case KindVMs:
		return "kvm"
	case KindContainers:
		return "docker"
	case KindLightVMs:
		return "lightvm"
	case KindSpecialized:
		return "specialized"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// CoreRef addresses one core of one kernel.
type CoreRef struct {
	Kernel *kernel.Kernel
	Core   int
}

// Environment is a deployed configuration: one or more kernels covering the
// machine, plus the flat core map the harness iterates over.
type Environment struct {
	Name    string
	Kind    EnvKind
	Units   int // kernels for VMs, containers for Docker, 1 for native
	Eng     *sim.Engine
	Kernels []*kernel.Kernel
	// HostBlock is the shared host block device (VM environments only).
	HostBlock *sim.Semaphore

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

// Native builds the bare-metal environment: one kernel managing the whole
// machine.
func Native(eng *sim.Engine, m Machine, src *rng.Source) *Environment {
	k := kernel.New(eng, kernel.Config{
		Name:  "native",
		Cores: m.Cores,
		MemGB: m.MemGB,
	}, src.Split(0x4e415456))
	e := &Environment{Name: "native", Kind: KindNative, Units: 1, Eng: eng, Kernels: []*kernel.Kernel{k}}
	for c := 0; c < m.Cores; c++ {
		e.cores = append(e.cores, CoreRef{Kernel: k, Core: c})
	}
	return e
}

// FromKernel wraps a pre-built kernel as a native-style environment — used
// by ablation studies that need full control over kernel parameters.
func FromKernel(eng *sim.Engine, k *kernel.Kernel) *Environment {
	e := &Environment{Name: k.Name(), Kind: KindNative, Units: 1, Eng: eng,
		Kernels: []*kernel.Kernel{k}}
	for c := 0; c < k.NumCores(); c++ {
		e.cores = append(e.cores, CoreRef{Kernel: k, Core: c})
	}
	return e
}

// VMs builds an n-VM environment partitioning the machine evenly: each VM
// is a guest kernel with 1/n of the cores and memory (Table 1's rows), vCPUs
// pinned, and a virtio disk relayed through the shared host block device.
// n must divide the core count.
func VMs(eng *sim.Engine, m Machine, n int, src *rng.Source) *Environment {
	if n <= 0 || m.Cores%n != 0 {
		panic(fmt.Sprintf("platform: %d VMs do not evenly partition %d cores", n, m.Cores))
	}
	host := sim.NewSemaphore(eng, "host-blk", 8)
	e := &Environment{
		Name:      fmt.Sprintf("kvm-%dx%d", n, m.Cores/n),
		Kind:      KindVMs,
		Units:     n,
		Eng:       eng,
		HostBlock: host,
	}
	coresPer := m.Cores / n
	memPer := m.MemGB / float64(n)
	for i := 0; i < n; i++ {
		k := kernel.New(eng, kernel.Config{
			Name:  fmt.Sprintf("vm%d", i),
			Cores: coresPer,
			MemGB: memPer,
			Virt:  DefaultVirtModel(host),
		}, src.Split(uint64(i)+0x564d))
		e.Kernels = append(e.Kernels, k)
		for c := 0; c < coresPer; c++ {
			e.cores = append(e.cores, CoreRef{Kernel: k, Core: c})
		}
	}
	return e
}

// Containers builds an n-container environment: one shared kernel manages
// the whole machine; each container contributes cgroup/memcg housekeeping
// to that kernel and pays a small per-entry namespace indirection. Medians
// stay native-like, but the shared kernel's noise grows mildly with the
// container count — Table 3's worst-case effect.
func Containers(eng *sim.Engine, m Machine, n int, src *rng.Source) *Environment {
	if n <= 0 {
		panic("platform: container count must be positive")
	}
	k := kernel.New(eng, kernel.Config{
		Name:   fmt.Sprintf("docker-%d", n),
		Cores:  m.Cores,
		MemGB:  m.MemGB,
		Params: ContainerParams(m, n),
	}, src.Split(uint64(n)+0x444f434b))
	e := &Environment{
		Name:    fmt.Sprintf("docker-%dx%d", n, m.Cores/max(n, 1)),
		Kind:    KindContainers,
		Units:   n,
		Eng:     eng,
		Kernels: []*kernel.Kernel{k},
	}
	for c := 0; c < m.Cores; c++ {
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
