package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		// Two children overlapping on [30,40], a third running past the
		// parent's end, and a grandchild that must not count against root.
		{ID: 2, Parent: 1, Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Start: ms(30), End: ms(60)},
		{ID: 4, Parent: 1, Start: ms(90), End: ms(120)},
		{ID: 5, Parent: 2, Start: ms(15), End: ms(35)},
		// A child nested entirely inside another adds nothing.
		{ID: 6, Parent: 1, Start: ms(20), End: ms(25)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(40), 2: ms(10), 3: ms(30), 4: ms(30), 5: ms(20), 6: ms(5)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75},
		{99, 75}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailLevel(c.n); p > 0 && c.n-rank(p, c.n) < minBeyond {
			t.Errorf("tailLevel(%d) = p%g leaves %d beyond", c.n, p, c.n-rank(p, c.n))
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a valid metric name: at most 64 letters,
// digits, '_', '.' and '-', starting with a letter or digit.
func validName(s string) bool { return metricName.MatchString(s) }

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "é", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]def(nil), endToEnd...), perLayer...) {
		if !validName(d.name) {
			t.Errorf("invalid metric name %q", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a workload", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSmoke runs every workload briefly, untraced and traced, and requires
// a clean correctness gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		cfg := config{seed: 7, seconds: time.Second, dir: t.TempDir()}
		for trace, fn := range []func(func(config) instance, config, string) (result, error){runTimed, runTraced} {
			res, err := fn(workloads[name], cfg, name)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v, %d of %d failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace == 1 {
				want = perLayer
			}
			for _, d := range want {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s trace=%d: metric %s missing", name, trace, d.name)
				}
			}
		}
	}
}
