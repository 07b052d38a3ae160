package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ksa"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// stripTiming drops the "[...]" lines runExperiment prints after each
// render: wall time, event rate and peak heap differ run to run.
func stripTiming(out string) string {
	var sb strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "[") {
			sb.WriteString(line)
		}
	}
	return sb.String()
}

// csvSums lists the SHA-256 of every CSV in dir, in sha256sum's format.
func csvSums(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, f := range files { // Glob sorts
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%x  %s\n", sha256.Sum256(b), filepath.Base(f))
	}
	return sb.String()
}

// checkGolden compares got with testdata/name, or rewrites it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./cmd/ksaexp -run Golden -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			t.Errorf("%s differs from the golden at line %d:\ngot  %q\nwant %q",
				path, i+1, line(g, i), line(w, i))
			return
		}
	}
}

// line returns lines[i], or "" past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

// Every local experiment's quick-scale output — its render and the bytes
// of every CSV it writes — is pinned in testdata, at one worker and at
// eight: any change to a model, a renderer or the fan-out's determinism
// fails here. A change that means to move the output reruns with -update
// and says why.
func TestExperimentGoldens(t *testing.T) {
	var all []string
	for _, e := range ksa.Experiments() {
		all = append(all, e.Name)
	}
	sel, err := selectExperiments(strings.Join(append(all, "blame"), ","), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			sc := ksa.QuickScale()
			sc.Parallel = parallel
			dir := t.TempDir()
			for _, e := range sel.local() {
				var out bytes.Buffer
				if err := runExperiment(&out, e, sc, "mixed", dir, false); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, e.Name+".txt", stripTiming(out.String()))
			}
			checkGolden(t, "csv.sha256", csvSums(t, dir))
		})
		if *update {
			break // the other worker counts check what this one wrote
		}
	}
}

// stubResult is an experiment result with a CSV series.
type stubResult struct{}

func (stubResult) Render() string { return "stub" }
func (stubResult) CSV() string    { return "a,b\n1,2\n" }

// A CSV that cannot be written fails the experiment, so ksaexp -csv into
// a missing directory exits non-zero instead of reporting success.
func TestCSVWriteErrorFailsTheExperiment(t *testing.T) {
	stub := ksa.Experiment{Name: "stub",
		Run: func(context.Context, ksa.Scale, string) (ksa.ExperimentResult, error) {
			return stubResult{}, nil
		}}
	dir := t.TempDir()
	if err := runExperiment(&bytes.Buffer{}, stub, ksa.QuickScale(), "", dir, false); err != nil {
		t.Fatalf("writable dir: %v", err)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "stub.csv")); err != nil || string(b) != (stubResult{}).CSV() {
		t.Fatalf("stub.csv = %q, %v", b, err)
	}
	missing := filepath.Join(dir, "missing")
	if err := writeCSV(missing, "stub", "x"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("writeCSV into a missing dir: %v, want ErrNotExist", err)
	}
	if err := runExperiment(&bytes.Buffer{}, stub, ksa.QuickScale(), "", missing, false); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("runExperiment with a missing -csv dir: %v, want ErrNotExist", err)
	}
}
