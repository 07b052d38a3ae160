// Command perfbench is the repository's benchmark. It drives the
// simulator's layers from outside, through their public functions, on four
// workloads, and prints host-time and host-memory metrics:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it sets the workload up several times, then repeats the
// workload's unit of work (a round) until --seconds have passed, and prints
// the end-to-end metrics. With --trace 1 it replays a round through the
// layer functions under spans and prints the per-layer metrics. Either way
// it checks every output against the program's own digests and the pinned
// ones in pins.json, and ends with one JSON line:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}
//
// See README.md beside this file for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workers is the fan-out width and the daemon's pool size: the benchmark
// is sized for a two-core host.
const workers = 2

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupReps = 5

// workDir is where runs keep caches and span files, relative to the
// directory the benchmark is started in.
const workDir = ".bench_build/work"

type config struct {
	seed    uint64
	seconds time.Duration
	dir     string // private scratch directory of this run
}

// roundOut is what one round of a workload reports.
type roundOut struct {
	ops       []time.Duration // per-cell or per-request host latency
	attempted int
	failed    int
	digest    string // the round's output digest ("" when checked per operation)
}

// tracedOut is what a workload's traced run reports.
type tracedOut struct {
	attempted, failed int
	refWall           time.Duration // untraced round
	tracedWall        time.Duration // the same work under spans
	use               usage         // host usage of the traced rounds
	rounds            int           // traced rounds
	layers            map[string]float64
	notes             []string // ratio bases and percentile levels, printed
}

// instance is one run of one workload.
type instance interface {
	// setup prepares the timed phase. It records the layer calls it makes
	// when tr is non-nil.
	setup(tr *tracer) error
	// round runs one untraced unit of work.
	round(i int) (roundOut, error)
	// traced replays the work through the layer functions under spans and
	// checks that it reproduces the untraced outputs.
	traced(tr *tracer, budget time.Duration) (tracedOut, error)
	// prepare computes, untimed, what the run's outputs are checked
	// against beyond their own digests, and checks the set-up's outputs.
	prepare() (attempted, failed int)
	// pins returns the digests of this run's outputs that pins.json fixes
	// per seed.
	pins() map[string]string
	close()
}

var workloads = map[string]func(config) instance{
	"sweep-cold":           newSweep,
	"density-churn":        newDensity,
	"daemon-mixed":         newDaemon,
	"isolation-contention": newIsolation,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 10, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, *name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: dir}

	host := hostRecord()
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)
	fmt.Printf("run workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traceFlag)

	var res result
	if *traceFlag == 1 {
		res, err = runTraced(mk, cfg, *name)
	} else {
		res, err = runTimed(mk, cfg, *name)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printLine prints one human-readable metric line.
func printLine(name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("metric %-32s %14.6g %-6s%s\n", name, v, unit, note)
}

// setupAll sets the workload up setupReps times, keeping the last
// instance, and returns it with the time of every set-up.
func setupAll(mk func(config) instance, cfg config) (instance, []float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		c := cfg
		c.dir = filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i))
		inst = mk(c)
		t0 := time.Now()
		if err := inst.setup(nil); err != nil {
			inst.close()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, times, nil
}

// runTimed is the untraced run: end-to-end metrics.
func runTimed(mk func(config) instance, cfg config, name string) (result, error) {
	inst, setups, err := setupAll(mk, cfg)
	if err != nil {
		return result{}, err
	}
	defer inst.close()

	var walls, allocs, ops []float64
	var events uint64
	var busy time.Duration
	attempted, failed := inst.prepare()
	digests := map[string]int{}
	start := time.Now()
	var last time.Duration
	for i := 0; i == 0 || time.Since(start)+last <= cfg.seconds; i++ {
		var out roundOut
		u, err := measure(false, func() error {
			var err error
			out, err = inst.round(i)
			return err
		})
		if err != nil {
			return result{}, fmt.Errorf("round %d: %w", i, err)
		}
		last = u.wall
		walls = append(walls, u.wall.Seconds())
		allocs = append(allocs, float64(u.alloc)/1e6)
		events += u.events
		busy += u.wall
		for _, d := range out.ops {
			ops = append(ops, float64(d)/1e6)
		}
		attempted += out.attempted
		failed += out.failed
		if out.digest != "" {
			digests[out.digest]++
		}
	}
	// Every round of a batch workload computes the same grid from the same
	// inputs, so every round must produce the same digest.
	if len(digests) > 1 {
		fmt.Printf("check FAIL rounds disagree: %d distinct digests\n", len(digests))
		failed++
	}
	failed += checkPins(name, cfg.seed, inst.pins())

	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	add := func(name string, v float64, note string) {
		d := metricDef(name)
		res.Metrics[name] = metric{Value: v, Unit: d.unit}
		printLine(name, v, d.unit, note)
	}
	add("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	add("wall_s", median(append([]float64(nil), walls...)), timingNote(walls, "rounds"))
	add("events_per_s", float64(events)/busy.Seconds(), fmt.Sprintf("%d events in %.3f s", events, busy.Seconds()))
	add("alloc_mb", median(allocs), fmt.Sprintf("median of %d rounds", len(allocs)))
	add("op_p50_ms", median(append([]float64(nil), ops...)), timingNote(ops, "operations"))
	printErrorRate(failed, attempted)
	res.Correct = failed == 0
	return res, nil
}

// timingNote renders a timing's sample count and its tail: the highest
// percentile with at least minBeyond samples beyond it.
func timingNote(xs []float64, what string) string {
	xs = append([]float64(nil), xs...)
	note := fmt.Sprintf("n=%d %s", len(xs), what)
	if p := tailLevel(len(xs)); p > 0 {
		note += fmt.Sprintf(", p%g %.6g", p, percentile(xs, p))
	}
	return note
}

// printErrorRate prints failed operations over attempted ones, with both
// counts.
func printErrorRate(failed, attempted int) {
	fmt.Printf("metric %-32s %14.6g %-6s  (%d failed / %d attempted)\n", "error_rate",
		float64(failed)/float64(max(attempted, 1)), "ratio", failed, attempted)
}

// runTraced is the traced run: per-layer metrics.
func runTraced(mk func(config) instance, cfg config, name string) (result, error) {
	tr := newTracer()
	c := cfg
	c.dir = filepath.Join(cfg.dir, "traced")
	inst := mk(c)
	defer inst.close()
	t0 := time.Now()
	if err := inst.setup(tr); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(t0)
	pa, pf := inst.prepare()
	out, err := inst.traced(tr, cfg.seconds)
	if err != nil {
		return result{}, err
	}
	out.attempted += pa
	out.failed += pf
	out.failed += checkPins(name, cfg.seed, inst.pins())
	spans := tr.snapshot()
	if err := tr.write(filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.json", name, cfg.seed))); err != nil {
		return result{}, err
	}

	vals := setupLayers(spans)
	for k, v := range out.layers {
		vals[k] = v
	}
	u := out.use
	vals["runtime.gc_cpu_s"] = u.gcCPU / float64(out.rounds)
	vals["runtime.peak_heap_mib"] = float64(u.peakHeap) / (1 << 20)
	if u.events > 0 {
		vals["runtime.alloc_bytes_per_event"] = float64(u.alloc) / float64(u.events)
	}
	vals["trace.overhead_s"] = (out.tracedWall - out.refWall).Seconds()

	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range perLayer {
		v := vals[d.name]
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		printLine(d.name, v, d.unit, d.note)
	}
	fmt.Printf("note traced set-up %.3f s; %d spans\n", setup.Seconds(), len(spans))
	for _, n := range out.notes {
		fmt.Println("note", n)
	}
	printSelfTimes(spans)
	fmt.Printf("note runtime.alloc_bytes_per_event base: %d events; allocated %d bytes\n", u.events, u.alloc)
	printErrorRate(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

// printSelfTimes prints, per span name, the calls, the summed duration and
// the summed self time: where the traced host time went.
func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	type agg struct {
		calls       int
		total, self time.Duration
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.calls++
		a.total += s.dur()
		a.self += self[s.ID]
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	for _, n := range names {
		a := by[n]
		fmt.Printf("self %-24s calls %7d  total %10.3f s  self %10.3f s\n", n, a.calls, a.total.Seconds(), a.self.Seconds())
	}
}

// setupLayers derives the set-up layer metrics every workload shares:
// the median time of one corpus generation and of one profiling pass.
func setupLayers(spans []span) map[string]float64 {
	return map[string]float64{
		"fuzz.generate_s":      median(durs(spans, "fuzz.generate")) / 1e3,
		"specialize.profile_s": median(durs(spans, "specialize.profile")) / 1e3,
	}
}

// sumDur is the summed duration of the spans named name.
func sumDur(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// durs returns the durations of the spans named name, in ms.
func durs(spans []span, name string) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.dur())/1e6)
		}
	}
	return xs
}

func count(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}
