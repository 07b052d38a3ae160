package kernel_test

import (
	"runtime"
	"testing"

	"ksa/internal/corpus"
	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/syscalls"
)

// tenantKernel builds the single-core per-tenant kernel a density cell
// boots for every specialized tenant.
func tenantKernel(eng *sim.Engine, seed uint64) *kernel.Kernel {
	return kernel.New(eng, kernel.Config{
		Name: "uk", Cores: 1, MemGB: 0.5, Params: kernel.DefaultParams(1, 0.5),
	}, rng.New(seed))
}

// TestTenantKernelByteBudget pins what building a 1-core kernel allocates.
// Locks are created on first use, and their 525-slot table with the first
// lock, so construction pays for neither (about 1.2 KB, against 4.2 KB for
// the table alone).
func TestTenantKernelByteBudget(t *testing.T) {
	const builds = 200
	const budget = 2 << 10
	eng := sim.NewEngine()
	keep := make([]*kernel.Kernel, builds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = tenantKernel(eng, uint64(i)+1)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per > budget {
		t.Fatalf("building a 1-core kernel allocates %d B, budget %d B", per, budget)
	}
}

// TestColdStartCreatesOnlyTouchedLocks runs the density cold-start burst on
// a fresh tenant kernel: exactly the locks it acquired exist afterwards,
// and read-only introspection (the contention report, and the per-lock
// counters the specialization profiler scans) creates none.
func TestColdStartCreatesOnlyTouchedLocks(t *testing.T) {
	tab := syscalls.Default()
	call := func(name string, args ...corpus.ArgValue) corpus.Call {
		return corpus.Call{Syscall: tab.Lookup(name).ID(), Args: args}
	}
	prog := &corpus.Program{Calls: []corpus.Call{
		call("fork"),
		call("execve", corpus.Const(7)),
		call("brk", corpus.Const(1<<22)),
		call("mmap", corpus.Const(0), corpus.Const(1<<21)),
		call("mprotect", corpus.Const(0), corpus.Const(1<<16)),
		call("prctl", corpus.Const(3)),
		call("open", corpus.Const(11), corpus.Const(0)),
		call("read", corpus.Result(6), corpus.Const(4096)),
		call("close", corpus.Result(6)),
	}}
	eng := sim.NewEngine()
	k := tenantKernel(eng, 3)
	if n := k.CreatedLocks(); n != 0 {
		t.Fatalf("fresh kernel has %d locks, want 0", n)
	}
	for id := kernel.LockID(0); id < kernel.LockID(kernel.NumLocks()); id++ {
		if s := k.LockStats(id); s.Acquires != 0 {
			t.Fatalf("fresh kernel reports %d acquires of %s", s.Acquires, s.Name)
		}
	}
	done := false
	corpus.NewRunner(eng, k, 0, tab).Run(prog, nil, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("cold-start program did not finish")
	}

	created := k.CreatedLocks()
	touched := 0
	for id := kernel.LockID(0); id < kernel.LockID(kernel.NumLocks()); id++ {
		if k.LockStats(id).Acquires > 0 {
			touched++
		}
	}
	if created == 0 || created != touched {
		t.Fatalf("%d locks created, %d acquired: want equal and nonzero", created, touched)
	}
	if created >= kernel.NumLocks()/10 {
		t.Fatalf("cold start created %d of %d locks", created, kernel.NumLocks())
	}
	var acquires uint64
	for _, l := range k.Contention().Locks {
		acquires += l.Acquires
	}
	if acquires == 0 {
		t.Fatal("contention report shows no lock activity")
	}
	if n := k.CreatedLocks(); n != created {
		t.Fatalf("introspection created locks: %d before, %d after", created, n)
	}
}
