package varbench

import (
	"testing"

	"ksa/internal/corpus"
	"ksa/internal/fuzz"
	"ksa/internal/platform"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/syscalls"
)

func smallCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	opts := fuzz.NewOptions(100)
	opts.TargetPrograms = 8
	c, _ := fuzz.Generate(opts)
	return c
}

func smallMachine() platform.Machine { return platform.Machine{Cores: 8, MemGB: 4} }

func TestRunCollectsAllSites(t *testing.T) {
	c := smallCorpus(t)
	env := platform.Build(sim.NewEngine(), smallMachine(), platform.KindNative, 0, nil, rng.New(1))
	opts := Options{Iterations: 5, Warmup: 1}
	res := Run(env, c, opts)
	if len(res.Sites) != c.NumCalls() {
		t.Fatalf("%d sites, want %d", len(res.Sites), c.NumCalls())
	}
	for _, sr := range res.Sites {
		want := env.NumCores() * opts.Iterations
		if sr.Sample.Len() != want {
			t.Fatalf("site %+v has %d samples, want %d", sr.Site, sr.Sample.Len(), want)
		}
		if sr.Sample.Min() <= 0 {
			t.Fatalf("site %+v has non-positive latency", sr.Site)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	c := smallCorpus(t)
	run := func() *Result {
		env := platform.Build(sim.NewEngine(), smallMachine(), platform.KindNative, 0, nil, rng.New(7))
		return Run(env, c, Options{Iterations: 3, Warmup: 0})
	}
	a, b := run(), run()
	for i := range a.Sites {
		av, bv := a.Sites[i].Sample.Values(), b.Sites[i].Sample.Values()
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("site %d sample %d differs: %v vs %v", i, j, av[j], bv[j])
			}
		}
	}
}

func TestRunOnVMsAndContainers(t *testing.T) {
	c := smallCorpus(t)
	for _, build := range []func() *platform.Environment{
		func() *platform.Environment {
			return platform.Build(sim.NewEngine(), smallMachine(), platform.KindVMs, 8, nil, rng.New(2))
		},
		func() *platform.Environment {
			return platform.Build(sim.NewEngine(), smallMachine(), platform.KindVMs, 2, nil, rng.New(2))
		},
		func() *platform.Environment {
			return platform.Build(sim.NewEngine(), smallMachine(), platform.KindContainers, 8, nil, rng.New(2))
		},
	} {
		env := build()
		res := Run(env, c, Options{Iterations: 3, Warmup: 0})
		if len(res.Sites) != c.NumCalls() {
			t.Fatalf("%s: wrong site count", env.Name)
		}
		for _, sr := range res.Sites {
			if sr.Sample.Len() != env.NumCores()*3 {
				t.Fatalf("%s: site %+v samples %d", env.Name, sr.Site, sr.Sample.Len())
			}
		}
	}
}

func TestWarmupExcluded(t *testing.T) {
	c := &corpus.Corpus{}
	getpid := syscalls.Default().Lookup("getpid")
	c.Add(&corpus.Program{Calls: []corpus.Call{{Syscall: getpid.ID()}}})
	env := platform.Build(sim.NewEngine(), platform.Machine{Cores: 2, MemGB: 1}, platform.KindNative, 0, nil, rng.New(3))
	res := Run(env, c, Options{Iterations: 4, Warmup: 3})
	if got := res.Sites[0].Sample.Len(); got != 2*4 {
		t.Fatalf("recorded %d samples, want 8 (warmup leaked in?)", got)
	}
}

func TestBreakdownsConsistent(t *testing.T) {
	c := smallCorpus(t)
	env := platform.Build(sim.NewEngine(), smallMachine(), platform.KindNative, 0, nil, rng.New(5))
	res := Run(env, c, Options{Iterations: 5, Warmup: 1})
	med, p99, max := res.MedianBreakdown(), res.P99Breakdown(), res.MaxBreakdown()
	if med.N != len(res.Sites) || p99.N != med.N || max.N != med.N {
		t.Fatal("breakdown site counts differ")
	}
	// Medians <= p99 <= max implies cumulative under-percentages ordered
	// the other way at each threshold.
	for i := 0; i < 5; i++ {
		if med.Under[i] < p99.Under[i] || p99.Under[i] < max.Under[i] {
			t.Fatalf("breakdowns not ordered at bucket %d: med=%v p99=%v max=%v",
				i, med.Under[i], p99.Under[i], max.Under[i])
		}
	}
}

func TestSiteSampleLookup(t *testing.T) {
	c := smallCorpus(t)
	env := platform.Build(sim.NewEngine(), smallMachine(), platform.KindNative, 0, nil, rng.New(5))
	res := Run(env, c, Options{Iterations: 2, Warmup: 0})
	if res.SiteSample(Site{0, 0}) == nil {
		t.Fatal("site (0,0) missing")
	}
	if res.SiteSample(Site{999, 0}) != nil {
		t.Fatal("bogus site returned sample")
	}
}

func TestCategoryP99s(t *testing.T) {
	c := smallCorpus(t)
	env := platform.Build(sim.NewEngine(), smallMachine(), platform.KindNative, 0, nil, rng.New(5))
	res := Run(env, c, Options{Iterations: 3, Warmup: 0})
	total := 0
	for _, cn := range syscalls.CategoryNames {
		s := res.CategoryP99s(cn.Cat, nil)
		total += s.Len()
	}
	if total == 0 {
		t.Fatal("no category p99s collected")
	}
	// Filter excludes everything.
	s := res.CategoryP99s(syscalls.CatProc, func(Site) bool { return false })
	if s.Len() != 0 {
		t.Fatal("filter ignored")
	}
}

func TestResultString(t *testing.T) {
	c := smallCorpus(t)
	env := platform.Build(sim.NewEngine(), smallMachine(), platform.KindNative, 0, nil, rng.New(5))
	res := Run(env, c, Options{Iterations: 2, Warmup: 0})
	if res.String() == "" {
		t.Fatal("empty String")
	}
}
