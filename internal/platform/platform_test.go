package platform

import (
	"fmt"
	"strings"
	"testing"

	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
)

func TestNativeLayout(t *testing.T) {
	eng := sim.NewEngine()
	e := Build(eng, PaperMachine, KindNative, 0, nil, rng.New(1))
	if e.NumCores() != 64 || len(e.Kernels) != 1 {
		t.Fatalf("native: %d cores, %d kernels", e.NumCores(), len(e.Kernels))
	}
	if e.Kernels[0].Virtualized() {
		t.Fatal("native kernel reports virtualized")
	}
	if e.Kernels[0].NumCores() != 64 || e.Kernels[0].MemGB() != 32 {
		t.Fatal("native kernel surface area wrong")
	}
	for i := 0; i < 64; i++ {
		ref := e.Core(i)
		if ref.Kernel != e.Kernels[0] || ref.Core != i {
			t.Fatalf("core map wrong at %d", i)
		}
	}
}

func TestVMPartitioning(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		eng := sim.NewEngine()
		e := Build(eng, PaperMachine, KindVMs, n, nil, rng.New(1))
		if len(e.Kernels) != n {
			t.Fatalf("%d VMs: got %d kernels", n, len(e.Kernels))
		}
		if e.NumCores() != 64 {
			t.Fatalf("%d VMs: %d total cores", n, e.NumCores())
		}
		for _, k := range e.Kernels {
			if k.NumCores() != 64/n {
				t.Fatalf("%d VMs: kernel has %d cores", n, k.NumCores())
			}
			if k.MemGB() != 32/float64(n) {
				t.Fatalf("%d VMs: kernel has %v GB", n, k.MemGB())
			}
			if !k.Virtualized() {
				t.Fatalf("%d VMs: guest not virtualized", n)
			}
		}
	}
}

// Every kind through Build: kernel count and per-kernel share of the
// machine, the isolation model (virtualized, reduced, sharing the node's
// block queue), and the env and kernel names that outputs and cache keys
// carry.
func TestBuildLayout(t *testing.T) {
	red := kernel.NewReduction(8)
	for _, tc := range []struct {
		kind    EnvKind
		name    string
		kernels []string
		virt    bool
		cores   int
		mem     float64
		reduced bool
	}{
		{KindNative, "native", []string{"native"}, false, 64, 32, false},
		{KindVMs, "kvm-4x16", []string{"vm0", "vm1", "vm2", "vm3"}, true, 16, 8, false},
		{KindLightVMs, "lightvm-4x16", []string{"microvm0", "microvm1", "microvm2", "microvm3"}, true, 16, 8, false},
		{KindContainers, "docker-4x16", []string{"docker-4"}, false, 64, 32, false},
		{KindSpecialized, "spec-4x16", []string{"spec0", "spec1", "spec2", "spec3"}, false, 16, 8, true},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			e := Build(sim.NewEngine(), PaperMachine, tc.kind, 4, red, rng.New(1))
			if e.Name != tc.name {
				t.Fatalf("env named %q, want %q", e.Name, tc.name)
			}
			if e.NumCores() != 64 || len(e.Kernels) != len(tc.kernels) {
				t.Fatalf("%d cores over %d kernels, want 64 over %d", e.NumCores(), len(e.Kernels), len(tc.kernels))
			}
			for i, k := range e.Kernels {
				if k.Name() != tc.kernels[i] {
					t.Fatalf("kernel %d named %q, want %q", i, k.Name(), tc.kernels[i])
				}
				if k.NumCores() != tc.cores || k.MemGB() != tc.mem {
					t.Fatalf("kernel %s manages %d cores / %v GB, want %d / %v", k.Name(), k.NumCores(), k.MemGB(), tc.cores, tc.mem)
				}
				if k.Virtualized() != tc.virt {
					t.Fatalf("kernel %s virtualized = %v", k.Name(), k.Virtualized())
				}
				if got := k.Reduction() != nil; got != tc.reduced {
					t.Fatalf("kernel %s reduced = %v, want %v", k.Name(), got, tc.reduced)
				}
				if tc.kind == KindSpecialized {
					if dev := k.BlockDevice(); dev != e.Kernels[0].BlockDevice() || dev.Name() != "node-blk" || dev.Cap() != 4 {
						t.Fatalf("kernel %s does not share the depth-4 node-blk queue", k.Name())
					}
				}
				if ref := e.Core(i * tc.cores); ref.Kernel != k || ref.Core != 0 {
					t.Fatalf("core %d does not map to %s's core 0", i*tc.cores, k.Name())
				}
			}
		})
	}
}

func TestBuildRejectsUnknownKind(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "kind(99)") {
			t.Fatalf("unknown kind: recovered %v, want a panic naming kind(99)", r)
		}
	}()
	Build(sim.NewEngine(), PaperMachine, EnvKind(99), 4, nil, rng.New(1))
}

func TestVMsRejectUneven(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("uneven partition did not panic")
		}
	}()
	Build(sim.NewEngine(), PaperMachine, KindVMs, 3, nil, rng.New(1))
}

func TestContainersShareOneKernel(t *testing.T) {
	eng := sim.NewEngine()
	e := Build(eng, PaperMachine, KindContainers, 16, nil, rng.New(1))
	if len(e.Kernels) != 1 {
		t.Fatalf("containers built %d kernels", len(e.Kernels))
	}
	k := e.Kernels[0]
	if k.Virtualized() {
		t.Fatal("container kernel reports virtualized")
	}
	if k.NumCores() != 64 {
		t.Fatal("container kernel does not manage the full machine")
	}
	if k.Params().EntryOverhead == 0 {
		t.Fatal("containers should pay namespace entry overhead")
	}
}

func TestContainerNoiseScalesWithCount(t *testing.T) {
	e1 := Build(sim.NewEngine(), PaperMachine, KindContainers, 1, nil, rng.New(1))
	e64 := Build(sim.NewEngine(), PaperMachine, KindContainers, 64, nil, rng.New(1))
	p1, p64 := e1.Kernels[0].Params(), e64.Kernels[0].Params()
	if p64.NoiseMeanGap >= p1.NoiseMeanGap {
		t.Fatal("64 containers should densify housekeeping")
	}
	if p64.NoiseMaxBurst <= p1.NoiseMaxBurst {
		t.Fatal("64 containers should lengthen worst bursts")
	}
}

func TestContainersRejectNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0 containers did not panic")
		}
	}()
	Build(sim.NewEngine(), PaperMachine, KindContainers, 0, nil, rng.New(1))
}

func TestVMConfigTableMatchesPaper(t *testing.T) {
	rows := VMConfigTable(PaperMachine)
	wantVMs := []int{1, 2, 4, 8, 16, 32, 64}
	wantCores := []int{64, 32, 16, 8, 4, 2, 1}
	wantMem := []float64{32, 16, 8, 4, 2, 1, 0.5}
	if len(rows) != len(wantVMs) {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.VMs != wantVMs[i] || r.CoresPer != wantCores[i] || r.MemGBPer != wantMem[i] {
			t.Fatalf("row %d = %+v", i, r)
		}
	}
}

func TestKindString(t *testing.T) {
	want := []string{"native", "kvm", "docker", "lightvm", "specialized"}
	if len(kindNames) != len(want) {
		t.Fatalf("%d kinds in the table, want %d", len(kindNames), len(want))
	}
	for i, name := range want {
		k := EnvKind(i)
		if k.String() != name {
			t.Fatalf("kind %d is %q, want %q", i, k, name)
		}
		if got, ok := ParseKind(name); !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", name, got, ok)
		}
	}
	for _, bad := range []string{"", "vm", "KVM", "native-8", "kind(5)"} {
		if k, ok := ParseKind(bad); ok {
			t.Fatalf("ParseKind(%q) accepted as %v", bad, k)
		}
	}
	if got := EnvKind(99).String(); got != "kind(99)" {
		t.Fatalf("unknown kind renders as %q", got)
	}
	if got := KindNames(); got != "native, kvm, docker, lightvm, specialized" {
		t.Fatalf("KindNames() = %q", got)
	}
}

// The headline surface-area property: a guest in the 64-VM configuration
// has a far smaller noise ceiling than the native kernel.
func TestSurfaceAreaNoiseOrdering(t *testing.T) {
	eng := sim.NewEngine()
	nat := Build(eng, PaperMachine, KindNative, 0, nil, rng.New(1))
	vms := Build(sim.NewEngine(), PaperMachine, KindVMs, 64, nil, rng.New(1))
	natCap := nat.Kernels[0].Params().NoiseMaxBurst
	vmCap := vms.Kernels[0].Params().NoiseMaxBurst
	if vmCap*10 > natCap {
		t.Fatalf("1-core guest noise cap %v not <<< native %v", vmCap, natCap)
	}
}

// Virtualization must be a bounded median tax: identical single tasks on
// native vs a 64-VM guest differ by a bounded small factor.
func TestVirtTaxBounded(t *testing.T) {
	run := func(e *Environment) sim.Time {
		ref := e.Core(0)
		var l kernel.OpList
		l.Compute(2 * sim.Microsecond)
		var got sim.Time
		ref.Kernel.Submit(ref.Core, &kernel.Task{Ops: l.Ops(), OnDone: func(lat sim.Time) { got = lat }})
		e.Eng.Run()
		return got
	}
	natEng := sim.NewEngine()
	nat := Build(natEng, PaperMachine, KindNative, 0, nil, rng.New(9))
	vmEng := sim.NewEngine()
	vm := Build(vmEng, PaperMachine, KindVMs, 64, nil, rng.New(9))
	tn, tv := run(nat), run(vm)
	if tv <= tn {
		t.Fatalf("virtualized task (%v) not slower than native (%v)", tv, tn)
	}
	if tv > 2*tn {
		t.Fatalf("virtualization tax unbounded: %v vs %v", tv, tn)
	}
}

func TestLightVMsLayout(t *testing.T) {
	eng := sim.NewEngine()
	e := Build(eng, PaperMachine, KindLightVMs, 4, nil, rng.New(1))
	if e.Name != "lightvm-4x16" {
		t.Fatalf("lightvm environment named %q", e.Name)
	}
	if len(e.Kernels) != 4 || e.NumCores() != 64 {
		t.Fatal("wrong partitioning")
	}
	for _, k := range e.Kernels {
		if !k.Virtualized() {
			t.Fatal("microVM guest not virtualized")
		}
	}
}

func TestLightVMTaxBelowKVMs(t *testing.T) {
	host := sim.NewSemaphore(sim.NewEngine(), "h", 8)
	light, kvm := LightVirtModel(host), DefaultVirtModel(host)
	if light.ExitCost >= kvm.ExitCost || light.ComputeDilation >= kvm.ComputeDilation ||
		light.PerTaskOverhead >= kvm.PerTaskOverhead || light.VirtioRelay >= kvm.VirtioRelay {
		t.Fatal("lightweight VM tax not below classic KVM's")
	}
}

func TestFromKernelWraps(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.Config{Name: "abl", Cores: 4, MemGB: 2}, rng.New(1))
	e := FromKernel(eng, k)
	if e.NumCores() != 4 || e.Kernels[0] != k || e.Core(3).Core != 3 {
		t.Fatal("FromKernel wiring wrong")
	}
}
