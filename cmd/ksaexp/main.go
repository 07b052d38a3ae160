// Command ksaexp regenerates the paper's tables and figures.
//
// Usage:
//
//	ksaexp [-exp name,...|all] [-scale default|quick]
//	       [-seed N] [-parallel N] [-cache dir|off] [-cache-verify]
//	       [-trace] [-fault name|list] [-remote url]
//	ksaexp -exp sweep [-envs list] [-trials N] [-workers N] [-worker-urls list]
//	       [-worker-bin path] [-scale ...] [-seed N] [-cache dir] [-fault name]
//	ksaexp -exp density [-tenants list] [-requests N] [-exact-stats] [-scale ...]
//	ksaexp -exp specialize [-strict-profile] [-scale ...] [-cache dir]
//	ksaexp -exp isolation [-scale ...] [-csv dir]
//
// The experiments are the library's experiment table (ksaexp -h lists it):
// "all" selects the paper's tables and figures, the extensions run when
// named, and a selection always runs in table order. Every experiment
// reports wall time, simulated events, and the peak heap
// high-water observed while it ran; -exact-stats swaps the bounded-memory
// quantile sketch for exact retained samples (the oracle backend), which is
// visible in that peak-heap line at density scale.
//
// Output is the textual analog of each table/figure; EXPERIMENTS.md records
// a reference run side by side with the paper's numbers. -trace appends the
// blame experiment (a traced native-machine varbench run attributing every
// over-threshold outlier to a kernel structure); it can also be selected
// directly with -exp blame.
//
// -cache points every experiment at a content-addressed result store:
// simulation cells are consulted there before running and written through
// after, so a repeated invocation reports 100% hits and an interrupted one
// resumes executing only the missing cells, with byte-identical tables and
// CSV either way. -cache-verify recomputes every hit and asserts
// byte-equality with the stored entry (a standing bit-identity audit).
//
// -remote submits the selected experiments to a running ksad daemon
// instead of executing locally: each becomes a job on the daemon's shared
// pool and the rendered output comes back byte-identical to a local run.
//
// -exp sweep runs a distributed sweep: the environment × trial grid is
// sharded across worker processes — ksad daemons spawned for the run
// (-workers N, sharing -cache) and/or already-running ones (-worker-urls)
// — and merged to the exact digest a serial run produces. A worker killed
// mid-sweep is failed over via the cache's lease protocol; see
// internal/distsweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ksa"
)

func main() {
	exps := flag.String("exp", "all", expUsage())
	scaleName := flag.String("scale", "default", "experiment scale: default or quick")
	seed := flag.Uint64("seed", 0, "override the scale's seed (unset = keep)")
	parallel := flag.Int("parallel", 0, "worker threads for independent simulations (0 = GOMAXPROCS); results are bit-identical for any value")
	csvDir := flag.String("csv", "", "also write figure series as CSV files into this directory")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (empty or 'off' disables); repeated runs reuse bit-identical cached cells, interrupted runs resume")
	cacheVerify := flag.Bool("cache-verify", false, "recompute every cache hit and assert byte-equality with the stored entry")
	traceOn := flag.Bool("trace", false, "also run the blame experiment (same as adding 'blame' to -exp)")
	faultName := flag.String("fault", "mixed", "interference plan for -exp interference: a preset name, or 'list' to print the presets and exit")
	remote := flag.String("remote", "", "ksad base URL (e.g. http://127.0.0.1:7077): submit the selected experiments as daemon jobs instead of running locally")
	envs := flag.String("envs", "native,kvm-8,docker-64", "for -exp sweep: comma-separated environment specs")
	trials := flag.Int("trials", 3, "for -exp sweep: trials per environment")
	workers := flag.Int("workers", 0, "for -exp sweep: spawn N local ksad worker processes for the run (shares -cache)")
	workerURLs := flag.String("worker-urls", "", "for -exp sweep: comma-separated base URLs of running ksad workers")
	workerBin := flag.String("worker-bin", "", "for -exp sweep -workers: ksad binary (default: sibling of this executable, then $PATH)")
	serial := flag.Bool("serial", false, "for -exp sweep: run the grid serially in-process instead of distributing — the digest oracle distributed runs are checked against")
	tenants := flag.String("tenants", "", "for -exp density: comma-separated tenant counts (overrides the scale's grid)")
	requests := flag.Int("requests", 0, "for -exp density: cold-start requests per tenant (0 = keep the scale's default)")
	exactStats := flag.Bool("exact-stats", false, "retain every observation exactly instead of the bounded-memory quantile sketch (the memory-hungry oracle backend; changes cache keys, not simulations)")
	strictProfile := flag.Bool("strict-profile", false, "for -exp specialize: exit non-zero if any in-profile call faults on the specialized kernel (the deliberate out-of-profile probe is exempt)")
	flag.Parse()

	if *faultName == "list" {
		for _, name := range ksa.FaultPresets() {
			p, _ := ksa.FaultPreset(name)
			fmt.Printf("%s: %d injector(s)\n", name, len(p.Injectors))
		}
		return
	}

	var sc ksa.Scale
	switch *scaleName {
	case "default":
		sc = ksa.DefaultScale()
	case "quick":
		sc = ksa.QuickScale()
	default:
		fmt.Fprintf(os.Stderr, "ksaexp: unknown -scale %q\n", *scaleName)
		os.Exit(2)
	}
	if flagWasSet("seed") {
		if *seed == 0 {
			fmt.Fprintln(os.Stderr, "ksaexp: -seed 0 is the 'keep the scale's default' sentinel; pass a nonzero seed (or omit the flag)")
			os.Exit(2)
		}
		sc.Seed = *seed
	}
	if *parallel < 0 {
		fmt.Fprintln(os.Stderr, "ksaexp: -parallel must be >= 0")
		os.Exit(2)
	}
	sc.Parallel = *parallel

	var cache *ksa.ResultCache
	if *cacheDir != "" && *cacheDir != "off" {
		var err error
		cache, err = ksa.OpenResultCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ksaexp:", err)
			os.Exit(2)
		}
	}
	if *cacheVerify && cache == nil {
		fmt.Fprintln(os.Stderr, "ksaexp: -cache-verify needs -cache <dir>")
		os.Exit(2)
	}
	sc.Cache = cache
	sc.CacheVerify = *cacheVerify
	sc.ExactStats = *exactStats
	if *tenants != "" {
		var grid []int
		for _, t := range strings.Split(*tenants, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(t))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "ksaexp: bad -tenants entry %q\n", t)
				os.Exit(2)
			}
			grid = append(grid, n)
		}
		sc.DensityTenants = grid
	}
	if *requests > 0 {
		sc.RequestsPerTenant = *requests
	}

	sel, err := selectExperiments(*exps, *traceOn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksaexp:", err)
		os.Exit(2)
	}
	if _, ok := ksa.FaultPreset(*faultName); !ok && slices.ContainsFunc(sel.exps,
		func(e ksa.Experiment) bool { return e.Name == "interference" }) {
		fmt.Fprintf(os.Stderr, "ksaexp: unknown -fault %q (try -fault list)\n", *faultName)
		os.Exit(2)
	}

	if *remote != "" {
		runRemote(*remote, sel, *scaleName, *seed, *faultName, *csvDir, *cacheDir, *cacheVerify)
		return
	}
	if sel.sweep {
		fname := *faultName
		if !flagWasSet("fault") {
			fname = "" // distributed sweeps default to clean runs
		}
		if *serial {
			runSerialSweep(*scaleName, *seed, *envs, *trials, fname, *cacheDir, cache)
			return
		}
		runDistributedSweep(*scaleName, *seed, *envs, *trials, fname,
			*workerURLs, *workers, *workerBin, *cacheDir)
		return
	}

	for _, e := range sel.local() {
		if err := runExperiment(os.Stdout, e, sc, *faultName, *csvDir, *strictProfile); err != nil {
			fmt.Fprintln(os.Stderr, "ksaexp:", err)
			os.Exit(1)
		}
	}
}

// runExperiment runs one experiment of the local run list and prints its
// rendered output to w, followed by the "[...]" lines that report its wall
// time, events, peak heap and cache traffic, and a blank line. A result
// with a CSV series is also written into csvDir when that is set. It
// returns the experiment's error, a failed CSV write, or, under
// strictProfile, a specialized kernel's in-profile faults.
func runExperiment(w io.Writer, e ksa.Experiment, sc ksa.Scale, faultName, csvDir string, strictProfile bool) error {
	t0 := time.Now()
	ev0 := ksa.EventsExecuted()
	var c0 ksa.CacheStats
	if sc.Cache != nil {
		c0 = sc.Cache.Stats()
	}
	var err error
	peak := peakHeap(func() {
		var res ksa.ExperimentResult
		if res, err = e.Run(context.Background(), sc, faultName); err != nil {
			err = fmt.Errorf("%s: %w", e.Name, err)
			return
		}
		fmt.Fprintln(w, res.Render())
		if r, ok := res.(interface{ CSV() string }); ok && csvDir != "" {
			if err = writeCSV(csvDir, e.Name, r.CSV()); err != nil {
				return
			}
		}
		if r, ok := res.(ksa.SpecializeResult); ok && strictProfile && r.MeasuredFaults > 0 {
			err = fmt.Errorf("-strict-profile: %d in-profile call(s) faulted on the specialized kernel",
				r.MeasuredFaults)
		}
	})
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	ev := ksa.EventsExecuted() - ev0
	if ev > 0 && wall > 0 {
		fmt.Fprintf(w, "[%s finished in %v — %.2fM events, %.2fM events/sec, peak heap %.1f MiB]\n",
			e.Name, wall.Round(time.Millisecond),
			float64(ev)/1e6, float64(ev)/wall.Seconds()/1e6, float64(peak)/(1<<20))
	} else {
		fmt.Fprintf(w, "[%s finished in %v — peak heap %.1f MiB]\n",
			e.Name, wall.Round(time.Millisecond), float64(peak)/(1<<20))
	}
	if sc.Cache != nil {
		if d := sc.Cache.Stats().Sub(c0); d.Lookups() > 0 {
			fmt.Fprintf(w, "[%s cache: %s]\n", e.Name, d)
		}
	}
	fmt.Fprintln(w)
	return nil
}

// selection is what -exp and -trace ask for.
type selection struct {
	exps  []ksa.Experiment // entries of the experiment table, in table order
	blame bool             // the CLI-only traced run, after the table entries
	sweep bool             // the distributed sweep, which runs alone
}

// local is the local run list: the table entries, then blame.
func (s selection) local() []ksa.Experiment {
	if !s.blame {
		return s.exps
	}
	return append(slices.Clone(s.exps), ksa.Experiment{Name: "blame",
		Run: func(_ context.Context, sc ksa.Scale, _ string) (ksa.ExperimentResult, error) {
			return ksa.RunBlame(sc, ksa.KindNative, 0, 0), nil
		}})
}

// remote is the -remote submission list: one experiment job per table
// entry, in the same order the local run uses.
func (s selection) remote(scaleName string, seed uint64, faultName string) []ksa.JobSpec {
	specs := make([]ksa.JobSpec, len(s.exps))
	for i, e := range s.exps {
		specs[i] = ksa.JobSpec{Type: "experiment", Exp: e.Name, Scale: scaleName, Seed: seed}
		if e.Name == "interference" {
			specs[i].Fault = faultName
		}
	}
	return specs
}

// selectExperiments resolves an -exp list. "all" selects the table's
// paper set; extensions join only when named. The local and the -remote
// path both run the result, so they run the same experiments in the same
// (table) order whatever order the list gives. A name that is neither in
// the table nor all, blame or sweep is an error.
func selectExperiments(list string, trace bool) (selection, error) {
	table := ksa.Experiments()
	known := map[string]bool{"all": true, "blame": true, "sweep": true}
	var names []string
	for _, e := range table {
		known[e.Name] = true
		names = append(names, e.Name)
	}
	want := map[string]bool{"blame": trace}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name != "" && !known[name] {
			return selection{}, fmt.Errorf("unknown experiment %q in -exp (want all, blame, sweep or one of %s)",
				name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	sel := selection{blame: want["blame"], sweep: want["sweep"]}
	for _, e := range table {
		if want[e.Name] || (want["all"] && e.InAll) {
			sel.exps = append(sel.exps, e)
		}
	}
	switch {
	case sel.sweep && (sel.blame || len(sel.exps) > 0):
		return selection{}, fmt.Errorf("-exp sweep runs alone (it has its own grid flags)")
	case !sel.sweep && !sel.blame && len(sel.exps) == 0:
		return selection{}, fmt.Errorf("nothing selected by -exp %q", list)
	}
	return sel, nil
}

// expUsage is the -exp help text: the experiment table, then the CLI-only
// runs.
func expUsage() string {
	var sb strings.Builder
	sb.WriteString("comma-separated experiments; all selects the paper's study (marked *)")
	for _, e := range ksa.Experiments() {
		mark := " "
		if e.InAll {
			mark = "*"
		}
		fmt.Fprintf(&sb, "\n%s %-12s %s", mark, e.Name, e.Desc)
	}
	sb.WriteString("\n  blame        traced native run blaming each outlier on a kernel structure (or -trace; local only)")
	sb.WriteString("\n  sweep        distributed environment × trial sweep (runs alone; see -envs, -trials, -workers)")
	return sb.String()
}

// writeCSV writes an experiment's CSV series into dir as <name>.csv.
func writeCSV(dir, name, csv string) error {
	path := filepath.Join(dir, name+".csv")
	if err := os.WriteFile(path, []byte(csv), 0o666); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ksaexp: wrote %s\n", path)
	return nil
}

// peakHeap runs fn while sampling the runtime heap in the background and
// returns the high-water HeapAlloc (bytes) observed. Millisecond-scale
// polling misses sub-poll allocation spikes but captures the sustained
// retained-data footprint — the quantity the sketch vs exact-stats backends
// differ on by orders of magnitude at high tenant density.
func peakHeap(fn func()) uint64 {
	var peak atomic.Uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			cur := peak.Load()
			if ms.HeapAlloc <= cur || peak.CompareAndSwap(cur, ms.HeapAlloc) {
				return
			}
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			sample()
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	<-done
	sample()
	return peak.Load()
}

// flagWasSet reports whether the named flag appeared on the command line
// (as opposed to holding its default).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// runRemote submits the selected experiments as jobs to a ksad daemon,
// follows each job's event stream, and prints the rendered output — which
// is byte-identical to what the same flags would produce locally.
func runRemote(base string, sel selection, scaleName string,
	seed uint64, faultName, csvDir, cacheDir string, cacheVerify bool) {
	if csvDir != "" || cacheDir != "" || cacheVerify {
		fmt.Fprintln(os.Stderr, "ksaexp: -csv/-cache/-cache-verify are local-only; the daemon owns its cache (start ksad with -cache)")
		os.Exit(2)
	}
	if sel.blame {
		fmt.Fprintln(os.Stderr, "ksaexp: blame is local-only (live tracers do not serialize); run it without -remote")
		os.Exit(2)
	}
	if len(sel.exps) == 0 {
		fmt.Fprintln(os.Stderr, "ksaexp: nothing selected to run remotely")
		os.Exit(2)
	}

	ctx := context.Background()
	cl := &ksa.DaemonClient{Base: base}
	for _, spec := range sel.remote(scaleName, seed, faultName) {
		t0 := time.Now()
		info, err := cl.Submit(ctx, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ksaexp:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ksaexp: %s submitted as %s\n", spec.Exp, info.ID)
		info, err = cl.Wait(ctx, info.ID, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ksaexp:", err)
			os.Exit(1)
		}
		if info.State != "done" {
			fmt.Fprintf(os.Stderr, "ksaexp: %s %s: %s\n", info.ID, info.State, info.Error)
			os.Exit(1)
		}
		fmt.Println(info.Result.Rendered)
		fmt.Printf("[%s finished in %v via %s]\n\n", spec.Exp, time.Since(t0).Round(time.Millisecond), base)
	}
}
