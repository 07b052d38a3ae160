package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"time"

	"ksa/internal/sim"
)

// def names one metric, its unit, and what it should move (printed next to
// it and listed in README.md).
type def struct{ name, unit, note string }

// endToEnd are the untraced run's metrics, reported on every workload.
var endToEnd = []def{
	{"setup_s", "s", "median set-up time"},
	{"wall_s", "s", "median host seconds of one round"},
	{"events_per_s", "1/s", "simulated events per host second of the timed phase"},
	{"alloc_mb", "MB", "median host bytes allocated per round"},
	{"op_p50_ms", "ms", "median latency of one cell or request"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0 there.
var perLayer = []def{
	{"fuzz.generate_s", "s", "-> setup_s"},
	{"specialize.profile_s", "s", "-> setup_s"},
	{"core.plan_ms", "ms", "PlanSweep + CacheKey per plan -> setup_s, op_p50_ms (daemon-mixed)"},
	{"core.render_s", "s", "Render/Digest/CSV per round -> wall_s"},
	{"platform.build_s", "s", "per round -> wall_s"},
	{"platform.build_p50_ms", "ms", "-> wall_s"},
	{"platform.kernels", "count", "kernels built per round"},
	{"varbench.run_s", "s", "busy per round -> wall_s, events_per_s"},
	{"varbench.cell_p50_s", "s", "-> op_p50_ms"},
	{"varbench.cell_max_s", "s", "slowest cell sets the fan-out tail -> wall_s"},
	{"sim.events", "count", "exact, per round"},
	{"sim.ns_per_event", "ns", "-> events_per_s"},
	{"density.run_s", "s", "busy per round -> wall_s, alloc_mb"},
	{"density.cell_max_s", "s", "-> wall_s"},
	{"density.tenants_per_s", "1/s", "tenants per busy second -> wall_s"},
	{"density.events", "count", "exact, per round"},
	{"isolation.score_ms", "ms", "ComputeScore (SharedSurface inside it) + Families per cell -> wall_s"},
	{"isolation.tasks", "count", "per round"},
	{"codec.encode_ms", "ms", "-> wall_s, daemon misses"},
	{"codec.payload_kb", "KB", "mean payload"},
	{"resultcache.get_hit_ms", "ms", "-> op_p50_ms (daemon-mixed)"},
	{"resultcache.get_miss_ms", "ms", "-> daemon misses"},
	{"resultcache.put_ms", "ms", "-> wall_s"},
	{"resultcache.claim_ms", "ms", "TryClaim + ReleaseClaim -> daemon misses"},
	{"resultcache.hit_ratio", "ratio", "hits / lookups"},
	{"resultcache.lookups", "count", "base of hit_ratio"},
	{"resultcache.bytes_written", "bytes", "per round"},
	{"runner.speedup", "ratio", "busy / wall of the fan-out -> wall_s"},
	{"runner.max_queue_wait_ms", "ms", "-> wall_s"},
	{"runner.pool_busy_frac", "ratio", "daemon pool busy / (wall x workers) -> wall_s (daemon-mixed)"},
	{"runner.pool_queue_depth_max", "count", "polled from /v1/metrics"},
	{"daemon.hit_p50_ms", "ms", "HTTP hit latency -> op_p50_ms"},
	{"daemon.hit_p99_ms", "ms", "HTTP hit tail"},
	{"daemon.miss_p50_ms", "ms", "HTTP miss latency -> wall_s"},
	{"daemon.miss_p90_ms", "ms", "HTTP miss tail -> wall_s"},
	{"daemon.req_per_s", "1/s", "closed-loop throughput, 2 clients"},
	{"daemon.hit_path_ms", "ms", "in-process hit path p50"},
	{"daemon.miss_path_ms", "ms", "in-process miss path p50"},
	{"daemon.http_ms", "ms", "HTTP hit p50 minus in-process hit p50 -> op_p50_ms"},
	{"daemon.json_ms", "ms", "JSON answer with the base64 payload, p50 -> op_p50_ms"},
	{"daemon.cells_run_per_miss", "ratio", "pool cells / misses; 1 = no duplicated simulation"},
	{"daemon.misses", "count", "base of cells_run_per_miss"},
	{"daemon.lease_conflicts", "count", "HTTP 409 answers"},
	{"runtime.gc_cpu_s", "s", "GC CPU per traced round -> wall_s"},
	{"runtime.alloc_bytes_per_event", "bytes", "-> alloc_mb"},
	{"runtime.peak_heap_mib", "MiB", "sampled every 5 ms"},
	{"trace.overhead_s", "s", "traced wall minus untraced wall"},
}

func metricDef(name string) def {
	for _, d := range append(append([]def(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d
		}
	}
	panic("undefined metric " + name)
}

// usage is what a measured stretch of work cost the host.
type usage struct {
	wall     time.Duration
	events   uint64  // simulated events executed
	alloc    uint64  // heap bytes allocated
	gcCPU    float64 // GC CPU seconds
	peakHeap uint64  // highest sampled live-object heap bytes (sampled runs only)
}

// measure runs fn and reports its host cost. With sample set, a goroutine
// polls the heap every 5 ms for the peak.
func measure(sample bool, fn func() error) (usage, error) {
	rt := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(rt)
	a0, g0 := rt[0].Value.Uint64(), rt[1].Value.Float64()
	e0 := sim.TotalExecuted()

	var peak atomic.Uint64
	stop, done := make(chan struct{}), make(chan struct{})
	if sample {
		go func() {
			defer close(done)
			heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				metrics.Read(heap)
				if v := heap[0].Value.Uint64(); v > peak.Load() {
					peak.Store(v)
				}
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
	} else {
		close(done)
	}
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	close(stop)
	<-done
	metrics.Read(rt)
	return usage{
		wall:     wall,
		events:   sim.TotalExecuted() - e0,
		alloc:    rt[0].Value.Uint64() - a0,
		gcCPU:    rt[1].Value.Float64() - g0,
		peakHeap: peak.Load(),
	}, err
}

// pinsJSON fixes output digests per workload and seed. The seed key "*"
// pins a digest that does not depend on the seed.
//
//go:embed pins.json
var pinsJSON []byte

// checkPins compares got against the pinned digests for (workload, seed)
// and returns the number of mismatches. Every digest is printed, so new
// seeds can be pinned from a run's output.
func checkPins(workload string, seed uint64, got map[string]string) int {
	var pins map[string]map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		fmt.Println("check FAIL pins.json:", err)
		return 1
	}
	fails := 0
	for k, v := range got {
		want, ok := pins[workload][strconv.FormatUint(seed, 10)][k]
		if !ok {
			want, ok = pins[workload]["*"][k]
		}
		switch {
		case !ok:
			fmt.Printf("check unpinned %s seed=%d %s=%s\n", workload, seed, k, v)
		case want != v:
			fmt.Printf("check FAIL pin %s seed=%d %s=%s want %s\n", workload, seed, k, v, want)
			fails++
		default:
			fmt.Printf("check pinned %s seed=%d %s=%s\n", workload, seed, k, v)
		}
	}
	return fails
}
