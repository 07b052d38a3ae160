package varbench

import (
	"testing"

	"ksa/internal/fault"
	"ksa/internal/platform"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/trace"
)

func mixedPlan(t *testing.T) *fault.Plan {
	t.Helper()
	p, ok := fault.Preset("mixed")
	if !ok {
		t.Fatal("mixed preset missing")
	}
	return &p
}

// A faulted run is as reproducible as a clean one: same seed and plan give
// byte-identical per-site samples, and the plan actually perturbs the run.
func TestFaultedRunDeterministic(t *testing.T) {
	c := smallCorpus(t)
	run := func(p *fault.Plan) *Result {
		env := platform.Build(sim.NewEngine(), smallMachine(), platform.KindNative, 0, nil, rng.New(9))
		return Run(env, c, Options{Iterations: 4, Warmup: 1, Seed: 9, Faults: p})
	}
	a := run(mixedPlan(t))
	b := run(mixedPlan(t))
	for i := range a.Sites {
		av, bv := a.Sites[i].Sample.Values(), b.Sites[i].Sample.Values()
		if len(av) != len(bv) {
			t.Fatalf("site %d sample counts differ: %d vs %d", i, len(av), len(bv))
		}
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("site %d sample %d differs between identical faulted runs: %v vs %v",
					i, j, av[j], bv[j])
			}
		}
	}
	clean := run(nil)
	same := true
	for i := range a.Sites {
		av, cv := a.Sites[i].Sample.Values(), clean.Sites[i].Sample.Values()
		if len(av) != len(cv) {
			same = false
			break
		}
		for j := range av {
			if av[j] != cv[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("faulted run is byte-identical to the clean run — plan injected nothing")
	}
}

// Injected interference is distinguishable in the blame decomposition: a
// traced faulted run attributes wait to the injected causes, and the kernel
// counters agree that injected wait is a subset of total lock wait.
func TestInjectedWaitTaggedInBlame(t *testing.T) {
	c := smallCorpus(t)
	env := platform.Build(sim.NewEngine(), smallMachine(), platform.KindNative, 0, nil, rng.New(9))
	res := Run(env, c, Options{
		Iterations: 4, Warmup: 1, Seed: 9, Faults: mixedPlan(t),
		Trace: &trace.Options{Threshold: 1, MaxRecords: 1 << 20},
	})
	st := env.Kernels[0].Stats()
	if st.InjHolds == 0 {
		t.Fatalf("plan attached but no injected holds: %+v", st)
	}
	if st.InjLockWait == 0 {
		t.Fatalf("no task wait attributed to injected holders: %+v", st)
	}
	if st.InjLockWait > st.LockWait {
		t.Fatalf("injected wait %v exceeds total lock wait %v", st.InjLockWait, st.LockWait)
	}
	var injTotal, emergent sim.Time
	for _, ct := range res.BlameTotals() {
		if ct.Cause == trace.CauseInjLockHold {
			injTotal = ct.Total
		}
		if ct.Cause == "lock:zone" || ct.Cause == "lock:journal" {
			emergent += ct.Total
		}
	}
	if injTotal == 0 {
		t.Fatalf("blame totals carry no %q cause: %+v", trace.CauseInjLockHold, res.BlameTotals())
	}
	// The tags separate injected from emergent wait rather than replacing
	// it: ordinary lock causes must survive alongside the injected one.
	if emergent == 0 {
		t.Fatal("injected tagging swallowed the emergent lock blame")
	}
}
