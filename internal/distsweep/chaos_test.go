// The chaos harness: real worker processes, a real SIGKILL, and the
// bit-identity assertion that survives it.
//
// TestMain re-execs this test binary as the worker fleet — a child
// started with KSA_DISTSWEEP_WORKER=1 never runs tests; it becomes a
// full ksad-equivalent daemon (same Daemon, same router, same cache)
// listening on a kernel-assigned port, announcing its address on stderr
// exactly as cmd/ksad does. That keeps the chaos test self-contained: no
// pre-built binary, no PATH assumptions, and the workers execute the
// identical code under test.
package distsweep

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"ksa/internal/core"
	"ksa/internal/daemon"
	"ksa/internal/resultcache"
)

func TestMain(m *testing.M) {
	if os.Getenv("KSA_DISTSWEEP_WORKER") == "1" {
		runWorkerProcess()
		return // unreachable: runWorkerProcess exits
	}
	os.Exit(m.Run())
}

// runWorkerProcess is the re-exec'd worker: a daemon with the shared
// cache, serving until SIGTERMed (fleet.Stop) or SIGKILLed (the chaos).
func runWorkerProcess() {
	var cache *resultcache.Store
	if dir := os.Getenv("KSA_DISTSWEEP_CACHE"); dir != "" {
		var err error
		if cache, err = resultcache.Open(dir); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
	}
	pool, _ := strconv.Atoi(os.Getenv("KSA_DISTSWEEP_POOL"))
	d := daemon.New(daemon.Config{Workers: pool, Cache: cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "worker: listening on http://%s\n", ln.Addr())
	if err := http.Serve(ln, daemon.NewRouter(d)); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
	}
	os.Exit(0)
}

// spawnWorkerFleet re-execs n copies of the test binary in worker mode,
// all sharing cacheDir.
func spawnWorkerFleet(t *testing.T, n int, cacheDir string) *Fleet {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f, err := SpawnFleet(n, func(int) *exec.Cmd {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"KSA_DISTSWEEP_WORKER=1",
			"KSA_DISTSWEEP_CACHE="+cacheDir,
			"KSA_DISTSWEEP_POOL=2",
		)
		return cmd
	}, 15*time.Second, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

func chaosSpec() Spec {
	return Spec{
		Scale:  "quick",
		Envs:   []string{"native", "kvm-2", "kvm-8", "docker-16"},
		Trials: 8, // 32 cells: enough runway to kill a worker mid-flight
	}
}

// TestChaosSIGKILLWorkerMidSweep is the harness the distributed layer is
// judged by: four real worker processes shard a 32-cell grid; at a
// quarter of the way in, one worker is SIGKILLed with no warning — its
// in-flight cell's connection dies, its leases rot until TTL expiry, and
// the three survivors steal and finish its share. The merged digest must
// equal a serial in-process run of the same grid, byte for byte, and the
// shared cache must afterwards hold every cell, so a serial rerun
// resumes to the same digest with zero misses.
func TestChaosSIGKILLWorkerMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	cacheDir := t.TempDir()
	fleet := spawnWorkerFleet(t, 4, cacheDir)
	spec := chaosSpec()
	want := serialSweep(t, spec).Digest()
	total := 4 * 8

	var done atomic.Int32
	var killed atomic.Bool
	res, err := Run(runnerCtx(t), Options{
		Spec:    spec,
		Workers: fleet.URLs(),
		Progress: func(_, _ int, _ string, _ bool) {
			// Kill synchronously from the dispatch goroutine so the death
			// lands while cells are still pending.
			if done.Add(1) == int32(total/4) && killed.CompareAndSwap(false, true) {
				t.Logf("chaos: SIGKILL worker 2 (%s)", fleet.Procs[2].URL)
				fleet.Procs[2].Kill()
			}
		},
		LeaseTTL: 1500 * time.Millisecond,
		HoldWait: 75 * time.Millisecond,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos run failed: %v (%s)", err, res.Dispatch)
	}
	if !killed.Load() {
		t.Fatal("sweep finished before the kill point — grid too small for the harness")
	}
	if res.Dispatch.Completed != total {
		t.Fatalf("Completed=%d want %d (%s)", res.Dispatch.Completed, total, res.Dispatch)
	}
	if res.Dispatch.SlotFailures == 0 {
		t.Fatalf("SIGKILL left no slot failure: %s", res.Dispatch)
	}
	if got := res.Sweep.Digest(); got != want {
		t.Fatalf("chaos digest %s != serial %s", got, want)
	}

	// Resume assertion: the survivors' writes made the shared cache
	// complete, so a serial in-process rerun against it is all hits and
	// lands on the same digest.
	store, err := resultcache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	envs, _ := core.ParseEnvSpecs(spec.Envs)
	sc := daemon.ScaleFor(spec.Scale, spec.Seed)
	sc.Cache = store
	sc.Parallel = 1
	serial := core.RunSweep(core.SweepOptions{Scale: sc, Envs: envs, Trials: spec.Trials})
	if serial.Par.CacheMisses != 0 {
		t.Fatalf("resume run recomputed %d cell(s); cache incomplete after chaos", serial.Par.CacheMisses)
	}
	if got := serial.Digest(); got != want {
		t.Fatalf("resume digest %s != serial %s", got, want)
	}
}

// TestChaosTwoCoordinatorsOneFleet runs two coordinators with distinct
// owners over disjoint halves of one fleet, racing on the same grid and
// the same shared cache. Leases keep the duplicated work bounded; both
// must converge to the serial digest.
func TestChaosTwoCoordinatorsOneFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	cacheDir := t.TempDir()
	fleet := spawnWorkerFleet(t, 4, cacheDir)
	spec := Spec{Scale: "quick", Envs: []string{"native", "kvm-4"}, Trials: 6}
	want := serialSweep(t, spec).Digest()

	type out struct {
		res Result
		err error
	}
	results := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			res, err := Run(runnerCtx(t), Options{
				Spec:     spec,
				Workers:  fleet.URLs()[i*2 : i*2+2],
				Owner:    fmt.Sprintf("coord-%d", i),
				LeaseTTL: 2 * time.Second, HoldWait: 50 * time.Millisecond,
			})
			results <- out{res, err}
		}(i)
	}
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("coordinator %d: %v", i, o.err)
		}
		if got := o.res.Sweep.Digest(); got != want {
			t.Fatalf("coordinator %d digest %s != serial %s", i, got, want)
		}
	}
}

// runnerCtx bounds chaos tests so a wedged fleet fails loudly instead of
// hitting the package timeout.
func runnerCtx(t *testing.T) (ctx context.Context) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}
