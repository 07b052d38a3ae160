package kernel

import (
	"testing"

	"ksa/internal/sim"
)

// TestContendedCritReplayAllocFree pins the executor's zero-allocation
// replay path: two warmed tasks on two cores run the same critical section
// on one lock, so every run takes one uncontended and one contended grant,
// both through the task's prebuilt grant continuation. With tracer and
// isolation off nothing in that path may allocate — not the grants, not
// the lock's waiter queue, not the event slab.
func TestContendedCritReplayAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	k := quietKernel(eng, 2)
	var l OpList
	l.Compute(sim.Microsecond).Crit(LockJournal, 5*sim.Microsecond).Compute(sim.Microsecond)
	ops := l.Ops()
	mm := sim.NewRWLock(eng, "mm")
	var done int
	onDone := func(sim.Time) { done++ }
	tasks := [2]*Task{
		{Ops: ops, AddrSpace: mm, OnDone: onDone},
		{Ops: ops, AddrSpace: mm, OnDone: onDone},
	}
	run := func() {
		for c, task := range tasks {
			k.Submit(c, task)
		}
		eng.Run()
	}
	// Warm the continuations, the lock's queue and the event slab.
	for i := 0; i < 3; i++ {
		run()
	}
	before := k.Lock(LockJournal).Contended()
	allocs := testing.AllocsPerRun(100, run)
	if allocs != 0 {
		t.Fatalf("contended critical-section replay allocated %.2f per run, want 0", allocs)
	}
	if got := k.Lock(LockJournal).Contended() - before; got == 0 {
		t.Fatal("the two tasks never contended: the test no longer exercises a queued grant")
	}
	if done != 2*(3+101) {
		t.Fatalf("%d task completions, want %d", done, 2*(3+101))
	}
}
