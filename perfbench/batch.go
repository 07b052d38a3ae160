package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ksa/internal/core"
	"ksa/internal/platform"
	"ksa/internal/resultcache"
	"ksa/internal/resultcache/codec"
	"ksa/internal/sim"
	"ksa/internal/varbench"
)

// batchRounds is what the traced flow of a batch workload needs: the
// untraced round through the program's entry point, and the same round
// replayed through the layer functions under spans.
type batchRounds interface {
	round(i int) (roundOut, error)
	tracedRound(tr *tracer, i int) (digest string, err error)
}

// tracedBatch runs one untraced round as the reference, then traced
// rounds until budget is spent (at least one). Every traced round must
// reproduce the reference digest.
func tracedBatch(w batchRounds, tr *tracer, budget time.Duration) (tracedOut, error) {
	start := time.Now()
	var ref roundOut
	refUse, err := measure(false, func() error {
		var err error
		ref, err = w.round(0)
		return err
	})
	if err != nil {
		return tracedOut{}, err
	}
	out := tracedOut{attempted: ref.attempted, failed: ref.failed, refWall: refUse.wall}
	var walls []float64
	var last time.Duration
	for i := 1; i == 1 || time.Since(start)+last <= budget; i++ {
		var digest string
		u, err := measure(true, func() error {
			var err error
			digest, err = w.tracedRound(tr, i)
			return err
		})
		if err != nil {
			return tracedOut{}, fmt.Errorf("traced round %d: %w", i, err)
		}
		last = u.wall
		walls = append(walls, u.wall.Seconds())
		out.use.add(u)
		out.attempted++ // the round's digest check
		if digest != ref.digest {
			fmt.Printf("check FAIL traced round %d digest %s, untraced %s\n", i, digest, ref.digest)
			out.failed++
		}
	}
	out.tracedWall = time.Duration(median(walls) * float64(time.Second))
	out.rounds = len(walls)
	out.layers = spanLayers(tr.snapshot(), out.rounds, out.use.events)
	fmt.Printf("check traced digest %s over %d traced round(s)\n", ref.digest, len(walls))
	return out, nil
}

// add accumulates u into a running total (peak heap is the maximum).
func (a *usage) add(u usage) {
	a.wall += u.wall
	a.events += u.events
	a.alloc += u.alloc
	a.gcCPU += u.gcCPU
	a.peakHeap = max(a.peakHeap, u.peakHeap)
}

// spanLayers derives the per-layer metrics that come straight from span
// names. Totals are per traced round; latencies are medians per call.
func spanLayers(spans []span, rounds int, events uint64) map[string]float64 {
	per := func(name string) float64 { return sumDur(spans, name).Seconds() / float64(rounds) }
	med := func(name string) float64 { return median(durs(spans, name)) }
	top := func(name string) float64 { return percentile(durs(spans, name), 100) }
	m := map[string]float64{
		"core.render_s":           per("core.render"),
		"platform.build_s":        per("platform.build"),
		"platform.build_p50_ms":   med("platform.build"),
		"varbench.run_s":          per("varbench.run"),
		"varbench.cell_p50_s":     med("varbench.run") / 1e3,
		"varbench.cell_max_s":     top("varbench.run") / 1e3,
		"density.run_s":           per("density.run"),
		"density.cell_max_s":      top("density.run") / 1e3,
		"isolation.score_ms":      med("isolation.score"),
		"codec.encode_ms":         med("codec.encode"),
		"resultcache.get_hit_ms":  med("resultcache.get_hit"),
		"resultcache.get_miss_ms": med("resultcache.get_miss"),
		"resultcache.put_ms":      med("resultcache.put"),
		"sim.events":              float64(events) / float64(rounds),
	}
	if n := count(spans, "core.plan"); n > 0 {
		m["core.plan_ms"] = float64(sumDur(spans, "core.plan")+sumDur(spans, "core.cache_key")) / 1e6 / float64(n)
	}
	if n := count(spans, "resultcache.claim"); n > 0 {
		m["resultcache.claim_ms"] = float64(sumDur(spans, "resultcache.claim")+sumDur(spans, "resultcache.release")) / 1e6 / float64(n)
	}
	if events > 0 {
		sim := sumDur(spans, "varbench.run") + sumDur(spans, "density.run")
		m["sim.ns_per_event"] = float64(sim.Nanoseconds()) / float64(events)
	}
	return m
}

// cellCounts are counters the traced cell path keeps beside its spans.
type cellCounts struct {
	kernels, payloads, payloadBytes atomic.Int64
}

// cellThroughCache replays one sweep cell the way SweepPlan.RunCell runs
// it with a cache, one layer call per span: key the cell, look it up, and
// on a miss build the environment, simulate, encode and store. It returns
// the result and its canonical payload.
func cellThroughCache(tr *tracer, parent, op int, p core.SweepPlan, st *resultcache.Store,
	c core.SweepCell, n *cellCounts) (*varbench.Result, []byte, error) {
	var key resultcache.Key
	tr.do("core.cache_key", parent, op, func(int) { key = p.CacheKey(c) })
	id := tr.begin("resultcache.get_miss", parent, op)
	payload, ok := st.Get(key)
	if ok {
		tr.rename(id, "resultcache.get_hit")
	}
	tr.end(id)
	if ok {
		res, err := codec.DecodeResult(payload)
		return res, payload, err
	}
	eng := sim.NewEngine()
	var env *platform.Environment
	tr.do("platform.build", parent, op, func(int) { env = c.Env.Build(eng, p.Opts.Machine, c.Seed) })
	n.kernels.Add(int64(len(env.Kernels)))
	sc := p.Opts.Scale
	opts := varbench.Options{Iterations: sc.Iterations, Warmup: sc.Warmup, Seed: c.Seed,
		ExactStats: sc.ExactStats, Faults: p.Opts.Faults}
	var res *varbench.Result
	tr.do("varbench.run", parent, op, func(int) { res = varbench.Run(env, p.Opts.Corpus, opts) })
	tr.do("codec.encode", parent, op, func(int) { payload = codec.EncodeResult(res) })
	n.payloads.Add(1)
	n.payloadBytes.Add(int64(len(payload)))
	var err error
	tr.do("resultcache.put", parent, op, func(int) { err = st.Put(key, payload) })
	return res, payload, err
}

// cacheLayers adds the counter-derived cache and codec metrics of a
// traced phase that ran rounds rounds against stores whose summed stats
// are s.
func cacheLayers(m map[string]float64, s resultcache.Stats, n *cellCounts, rounds int) []string {
	m["resultcache.hit_ratio"] = s.HitRate()
	m["resultcache.lookups"] = float64(s.Lookups())
	m["resultcache.bytes_written"] = float64(s.BytesWritten) / float64(rounds)
	if p := n.payloads.Load(); p > 0 {
		m["codec.payload_kb"] = float64(n.payloadBytes.Load()) / 1e3 / float64(p)
	}
	m["platform.kernels"] = float64(n.kernels.Load()) / float64(rounds)
	return []string{
		fmt.Sprintf("resultcache.hit_ratio base: %d lookups (%d hits) over %d traced round(s)", s.Lookups(), s.Hits, rounds),
		fmt.Sprintf("codec.payload_kb base: %d payloads", n.payloads.Load()),
	}
}

// freshStore opens an empty result store in a new directory under dir.
func freshStore(dir, name string) (*resultcache.Store, error) {
	path := filepath.Join(dir, name)
	if err := os.RemoveAll(path); err != nil {
		return nil, err
	}
	return resultcache.Open(path)
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
