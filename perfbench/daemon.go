package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ksa/internal/core"
	"ksa/internal/corpus"
	"ksa/internal/daemon"
	"ksa/internal/resultcache"
	"ksa/internal/resultcache/codec"
	"ksa/internal/runner"
	"ksa/internal/specialize"
	"ksa/internal/syscalls"
	"ksa/internal/varbench"
)

// daemon-mixed: an in-process ksad (daemon.New + daemon.NewRouter on a
// loopback listener, a pool of 2 workers, a fresh store) serving two
// closed-loop clients that POST /v1/cells at quick scale with an owner and
// a lease, as a distributed-sweep coordinator does.
//
// A round is 27 requests in a seeded order: 23 repeat cells warmed during
// set-up (85%; the read path: plan, key, Store.Get, base64 and JSON), and
// one never-seen trial per environment (15%; the write path: claim,
// simulate, encode, put, release). Fixing the mix per round keeps rounds
// of equal cost; the seed draws which warmed cells repeat and the order.
// The cells themselves come from the quick scale's own root seed, so the
// miss cost does not change with the run's seed.
var daemonEnvs = []string{"native", "kvm-8", "docker-8", "specialized-8"}

const (
	warmTrials   = 4  // warmed trials per environment
	hitsPerRound = 23 // plus one miss per environment
	daemonScale  = "quick"
	leaseMS      = 60_000
	maxAttempts  = 5 // tries per request while a lease conflict persists
)

// cellID names one cell of the daemon's grid.
type cellID struct {
	env   string
	trial int
}

type request struct {
	id   int
	cell cellID
	hit  bool // a warmed cell
}

// response is what one client saw for one request.
type response struct {
	lat       time.Duration
	res       daemon.CellResult
	err       error
	conflicts int
}

type daemonRun struct {
	cfg    config
	d      *daemon.Daemon
	srv    *http.Server
	served chan error
	client *daemon.Client
	hc     *http.Client

	warm   map[cellID][]byte // payloads the warm-up requests returned
	oracle map[cellID][]byte // the same cells computed without the daemon
	miss0  map[cellID][]byte // round 0's misses, kept for pins and the oracle

	hitLat, missLat []float64 // ms, per answered request
	conflicts       int       // 409 answers retried

	// traced run
	corpus       *corpus.Corpus
	counts       cellCounts
	sums         map[int]string // request id -> sha256 of the HTTP payload
	replayRounds int
	replayStats  resultcache.Stats
	opEnv        sync.Map // span op -> environment of the replayed request
}

func newDaemon(cfg config) instance {
	return &daemonRun{cfg: cfg, miss0: map[cellID][]byte{}}
}

func (w *daemonRun) spec(c cellID, client int) daemon.CellSpec {
	return daemon.CellSpec{Scale: daemonScale, Env: c.env, Trial: c.trial,
		Owner: fmt.Sprintf("perfbench-client-%d", client), LeaseMS: leaseMS}
}

func warmCells() []cellID {
	var cells []cellID
	for _, e := range daemonEnvs {
		for t := 0; t < warmTrials; t++ {
			cells = append(cells, cellID{e, t})
		}
	}
	return cells
}

// setup starts the daemon on a fresh store and warms every warm cell
// through HTTP. In a traced run it also generates and profiles the corpus
// the in-process replay uses, under spans.
func (w *daemonRun) setup(tr *tracer) error {
	st, err := freshStore(w.cfg.dir, "cache")
	if err != nil {
		return err
	}
	w.d = daemon.New(daemon.Config{Workers: workers, Cache: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: daemon.NewRouter(w.d)}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	w.client = &daemon.Client{Base: "http://" + ln.Addr().String(), HTTP: w.hc}

	var reqs []request
	for i, c := range warmCells() {
		reqs = append(reqs, request{id: -1 - i, cell: c})
	}
	w.warm = map[cellID][]byte{}
	for i, r := range w.serve(reqs) {
		if r.err != nil {
			return fmt.Errorf("warm-up %v: %w", reqs[i].cell, r.err)
		}
		w.warm[reqs[i].cell] = r.res.Payload
	}
	if tr != nil {
		sc := daemon.ScaleFor(daemonScale, 0)
		tr.do("fuzz.generate", 0, 0, func(int) { w.corpus, _ = sc.GenerateCorpus() })
		tr.do("specialize.profile", 0, 0, func(int) {
			specialize.ProfileCorpus(w.corpus, syscalls.Default(),
				runner.DeriveSeed(sc.Seed, "specialize/profile"), 0)
		})
	}
	return nil
}

// prepare computes the oracle every checked payload is compared with: the
// warm cells and round 0's misses, each run by PlanSweep.RunCell and
// encoded by codec.EncodeResult, with no daemon and no store.
func (w *daemonRun) prepare() (attempted, failed int) {
	sc := daemon.ScaleFor(daemonScale, 0)
	c, _ := sc.GenerateCorpus()
	cells := warmCells()
	for _, e := range daemonEnvs {
		cells = append(cells, cellID{e, warmTrials})
	}
	payloads, _ := runner.Map(len(cells), workers, func(i int) []byte {
		env, _ := core.ParseEnvSpec(cells[i].env)
		p := core.PlanSweep(core.SweepOptions{Scale: sc, Envs: []core.EnvSpec{env},
			Trials: cells[i].trial + 1, Corpus: c})
		run, _ := p.RunCell(p.Cells[cells[i].trial])
		return codec.EncodeResult(run.Res)
	})
	w.oracle = map[cellID][]byte{}
	for i, c := range cells {
		w.oracle[c] = payloads[i]
	}
	for c, got := range w.warm {
		attempted++
		if !bytes.Equal(got, w.oracle[c]) {
			fmt.Printf("check FAIL warm-up payload of %v differs from the oracle\n", c)
			failed++
		}
	}
	return attempted, failed
}

// roundRequests returns round i's requests in their seeded order.
func (w *daemonRun) roundRequests(i int) []request {
	rng := rand.New(rand.NewPCG(w.cfg.seed, uint64(i)))
	warm := warmCells()
	var reqs []request
	for k := 0; k < hitsPerRound; k++ {
		reqs = append(reqs, request{cell: warm[rng.IntN(len(warm))], hit: true})
	}
	for _, e := range daemonEnvs {
		reqs = append(reqs, request{cell: cellID{e, warmTrials + i}})
	}
	rng.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
	for k := range reqs {
		reqs[k].id = i*len(reqs) + k
	}
	return reqs
}

// serve sends reqs from the closed-loop clients and returns the responses
// in request order.
func (w *daemonRun) serve(reqs []request) []response {
	out := make([]response, len(reqs))
	closedLoop(len(reqs), func(k, client int) { out[k] = w.send(reqs[k], client) })
	return out
}

// closedLoop calls fn(k, client) for every k below n from two clients,
// each taking the next k once its previous call has returned.
func closedLoop(n int, fn func(k, client int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for cl := 0; cl < workers; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				fn(k, cl)
			}
		}()
	}
	wg.Wait()
}

// send posts one request, retrying while another owner's lease holds the
// cell; the latency runs from the first send to the full response.
func (w *daemonRun) send(r request, client int) response {
	t0 := time.Now()
	var resp response
	for a := 0; a < maxAttempts; a++ {
		resp.res, resp.err = w.client.Cell(context.Background(), w.spec(r.cell, client))
		var held *daemon.LeaseHeldError
		if !errors.As(resp.err, &held) {
			break
		}
		resp.conflicts++
		time.Sleep(20 * time.Millisecond)
	}
	resp.lat = time.Since(t0)
	return resp
}

// check returns whether one response is wrong: an error, a payload that
// does not decode, a cell identity that differs from the request, a hit
// that was simulated or a miss that was served from the store, or a
// payload that differs from the oracle.
func (w *daemonRun) check(r request, resp response) bool {
	if resp.err != nil {
		fmt.Printf("check FAIL request %d %v: %v\n", r.id, r.cell, resp.err)
		return true
	}
	key := runner.SweepKey(r.cell.env, r.cell.trial)
	seed := runner.DeriveSeed(daemon.ScaleFor(daemonScale, 0).Seed, key)
	bad := ""
	switch res := resp.res; {
	case res.JobKey != key || res.Seed != seed:
		bad = fmt.Sprintf("answered %s seed %#x", res.JobKey, res.Seed)
	case res.CacheHit != r.hit:
		bad = fmt.Sprintf("cache_hit %v", res.CacheHit)
	default:
		if _, err := codec.DecodeResult(res.Payload); err != nil {
			bad = "payload does not decode: " + err.Error()
		} else if want, ok := w.oracle[r.cell]; ok && !bytes.Equal(res.Payload, want) {
			bad = "payload differs from the oracle"
		}
	}
	if bad != "" {
		fmt.Printf("check FAIL request %d %v: %s\n", r.id, r.cell, bad)
		return true
	}
	return false
}

func (w *daemonRun) round(i int) (roundOut, error) {
	reqs := w.roundRequests(i)
	resps := w.serve(reqs)
	out := roundOut{attempted: len(reqs)}
	for k, r := range reqs {
		resp := resps[k]
		out.ops = append(out.ops, resp.lat)
		if w.check(r, resp) {
			out.failed++
			continue
		}
		w.conflicts += resp.conflicts
		if i == 0 && !r.hit {
			w.miss0[r.cell] = resp.res.Payload
		}
		if w.sums != nil {
			w.sums[r.id] = sha(resp.res.Payload)
		}
		lat := float64(resp.lat) / 1e6
		if r.hit {
			w.hitLat = append(w.hitLat, lat)
		} else {
			w.missLat = append(w.missLat, lat)
		}
	}
	return out, nil
}

// pins fixes the warm cells' payloads and round 0's misses. Neither
// depends on the run's seed.
func (w *daemonRun) pins() map[string]string {
	return map[string]string{
		"warm_sha256":  payloadsDigest(w.warm, warmCells()),
		"miss0_sha256": payloadsDigest(w.miss0, firstMisses()),
	}
}

func firstMisses() []cellID {
	var cells []cellID
	for _, e := range daemonEnvs {
		cells = append(cells, cellID{e, warmTrials})
	}
	return cells
}

func payloadsDigest(m map[cellID][]byte, order []cellID) string {
	h := sha256.New()
	for _, c := range order {
		fmt.Fprintf(h, "%s/%d %d\n", c.env, c.trial, len(m[c]))
		h.Write(m[c])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traced sends HTTP rounds for half the budget, polling /v1/metrics for
// the pool's queue, then replays the same requests in-process through the
// functions Daemon.RunCell calls, under spans, against a second store
// warmed the same way. Every replayed payload must equal the HTTP one.
func (w *daemonRun) traced(tr *tracer, budget time.Duration) (tracedOut, error) {
	ctx := context.Background()
	before, err := w.client.Metrics(ctx)
	if err != nil {
		return tracedOut{}, err
	}
	stop, polled := make(chan struct{}), make(chan int)
	go func() {
		depth := 0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if m, err := w.client.Metrics(ctx); err == nil {
				depth = max(depth, m.Pool.QueueDepth)
			}
			select {
			case <-stop:
				polled <- depth
				return
			case <-tick.C:
			}
		}
	}()

	out := tracedOut{layers: map[string]float64{}}
	w.sums = map[int]string{}
	start := time.Now()
	var rounds [][]request
	var httpWall time.Duration
	for i := 0; i == 0 || time.Since(start) < budget/2; i++ {
		var ro roundOut
		u, err := measure(false, func() error {
			var err error
			ro, err = w.round(i)
			return err
		})
		if err != nil {
			return tracedOut{}, err
		}
		httpWall += u.wall
		rounds = append(rounds, w.roundRequests(i))
		out.attempted += ro.attempted
		out.failed += ro.failed
	}
	close(stop)
	depth := <-polled
	after, err := w.client.Metrics(ctx)
	if err != nil {
		return tracedOut{}, err
	}

	m := out.layers
	hits, misses := w.hitLat, w.missLat
	hitLevel := min(99, tailLevel(len(hits)))
	m["daemon.hit_p50_ms"] = median(hits)
	m["daemon.hit_p99_ms"] = percentile(hits, hitLevel)
	m["daemon.miss_p50_ms"] = median(misses)
	m["daemon.miss_p90_ms"] = percentile(misses, min(90, tailLevel(len(misses))))
	m["daemon.req_per_s"] = float64(len(hits)+len(misses)) / httpWall.Seconds()
	m["daemon.misses"] = float64(len(misses))
	m["daemon.cells_run_per_miss"] = float64(after.Pool.CellsRun-before.Pool.CellsRun) / float64(len(misses))
	m["daemon.lease_conflicts"] = float64(w.conflicts)
	m["runner.pool_busy_frac"] = (after.Pool.BusyMS - before.Pool.BusyMS) / (float64(httpWall.Milliseconds()) * workers)
	m["runner.pool_queue_depth_max"] = float64(depth)
	out.notes = append(out.notes,
		fmt.Sprintf("daemon HTTP phase: %d rounds, %d hits, %d misses; hit tail at p%g, miss tail at p%g",
			len(rounds), len(hits), len(misses), hitLevel, min(90, tailLevel(len(misses)))),
		fmt.Sprintf("daemon.cells_run_per_miss base: %d misses; runner.pool_busy_frac base: %.3f s x %d workers",
			len(misses), httpWall.Seconds(), workers))

	rp, err := w.replay(tr, rounds, budget-time.Since(start))
	if err != nil {
		return tracedOut{}, err
	}
	out.use = rp.use
	out.rounds = w.replayRounds
	out.refWall, out.tracedWall = rp.refWall, rp.tracedWall
	out.attempted += len(rp.reps)
	for _, r := range rp.reps {
		if r.sum != w.sums[r.id] {
			fmt.Printf("check FAIL replayed request %d %v: payload differs from the HTTP one\n", r.id, r.cell)
			out.failed++
		}
	}

	spans := tr.snapshot()
	for k, v := range spanLayers(spans, w.replayRounds, rp.use.events) {
		m[k] = v
	}
	m["daemon.hit_path_ms"] = median(durs(spans, "daemon.hit"))
	m["daemon.miss_path_ms"] = median(durs(spans, "daemon.miss"))
	m["daemon.http_ms"] = m["daemon.hit_p50_ms"] - m["daemon.hit_path_ms"]
	m["daemon.json_ms"] = median(durs(spans, "daemon.encode_json"))
	out.notes = append(out.notes, cacheLayers(m, w.replayStats, &w.counts, w.replayRounds)...)
	out.notes = append(out.notes, w.planByEnv(spans))
	out.notes = append(out.notes, fmt.Sprintf("daemon replay: %d requests in %d of %d round(s)",
		len(rp.reps), w.replayRounds, len(rounds)))
	return out, nil
}

// planByEnv reports the median PlanSweep time per environment: every
// request plans its cell afresh, and a specialized environment re-profiles
// the corpus each time.
func (w *daemonRun) planByEnv(spans []span) string {
	by := map[string][]float64{}
	for _, s := range spans {
		if env, ok := w.opEnv.Load(s.Op); ok && s.Name == "core.plan" {
			by[env.(string)] = append(by[env.(string)], float64(s.dur())/1e6)
		}
	}
	note := "core.plan per request, median ms:"
	for _, e := range daemonEnvs {
		note += fmt.Sprintf(" %s %.3f (n=%d)", e, median(by[e]), len(by[e]))
	}
	return note
}

// replayed is one replayed request's payload digest.
type replayed struct {
	id   int
	cell cellID
	sum  string
}

// replayOut is what the in-process replay measured.
type replayOut struct {
	use                 usage // the traced rounds
	reps                []replayed
	refWall, tracedWall time.Duration // rounds[0] untraced and traced
}

// replay first replays rounds[0] untraced against a freshly warmed store,
// as the reference for trace.overhead_s. It then warms a second store the
// same way and replays rounds in order under spans until they are done or
// budget is spent (at least one). Each store sees rounds[0] right after its
// warm-up, so both replays of it run the same hits and the same misses.
func (w *daemonRun) replay(tr *tracer, rounds [][]request, budget time.Duration) (replayOut, error) {
	deadline := time.Now().Add(budget)
	pool := runner.NewPool(workers)
	defer pool.Close()
	var out replayOut
	ref, err := w.warmStore(pool, "replay-ref")
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	if _, err := w.replayRound(nil, ref, pool, rounds[0], &cellCounts{}); err != nil {
		return out, err
	}
	out.refWall = time.Since(t0)
	st, err := w.warmStore(pool, "replay")
	if err != nil {
		return out, err
	}
	base := st.Stats()
	out.use, err = measure(true, func() error {
		for i, reqs := range rounds {
			if i > 0 && time.Now().After(deadline) {
				break
			}
			t := time.Now()
			got, err := w.replayRound(tr, st, pool, reqs, &w.counts)
			if err != nil {
				return err
			}
			if i == 0 {
				out.tracedWall = time.Since(t)
			}
			out.reps = append(out.reps, got...)
			w.replayRounds++
		}
		return nil
	})
	w.replayStats = st.Stats().Sub(base)
	return out, err
}

// warmStore opens an empty store named name and fills it with the warm
// cells in-process, as set-up fills the daemon's store over HTTP.
func (w *daemonRun) warmStore(pool *runner.Pool, name string) (*resultcache.Store, error) {
	st, err := freshStore(w.cfg.dir, name)
	if err != nil {
		return nil, err
	}
	var warm []request
	for i, c := range warmCells() {
		warm = append(warm, request{id: -1 - i, cell: c})
	}
	_, err = w.replayRound(nil, st, pool, warm, &cellCounts{})
	return st, err
}

// replayRound replays reqs from the closed-loop clients.
func (w *daemonRun) replayRound(tr *tracer, st *resultcache.Store, pool *runner.Pool,
	reqs []request, n *cellCounts) ([]replayed, error) {
	out := make([]replayed, len(reqs))
	errs := make([]error, len(reqs))
	closedLoop(len(reqs), func(k, client int) {
		out[k], errs[k] = w.replayCell(tr, st, pool, reqs[k], client, n)
	})
	return out, errors.Join(errs...)
}

// replayCell runs one request through the functions Daemon.RunCell calls,
// in its order, one span per call: validate, plan, key, look up; on a miss
// claim the lease, run the cell on the pool (look up again, build,
// simulate, encode, store), encode the payload and release; then encode
// the JSON answer as the router does.
func (w *daemonRun) replayCell(tr *tracer, st *resultcache.Store, pool *runner.Pool,
	r request, client int, n *cellCounts) (replayed, error) {
	op := r.id + 1
	w.opEnv.Store(op, r.cell.env)
	root := tr.begin("daemon.miss", 0, op)
	defer tr.end(root)
	spec := w.spec(r.cell, client)
	if err := spec.Validate(); err != nil {
		return replayed{}, err
	}
	sc := daemon.ScaleFor(spec.Scale, spec.Seed)
	sc.Cache = st
	env, err := core.ParseEnvSpec(spec.Env)
	if err != nil {
		return replayed{}, err
	}
	o := core.SweepOptions{Scale: sc, Envs: []core.EnvSpec{env}, Trials: spec.Trial + 1, Corpus: w.corpus}
	var p core.SweepPlan
	tr.do("core.plan", root, op, func(int) { p = core.PlanSweep(o) })
	cell := p.Cells[spec.Trial]
	res := daemon.CellResult{JobKey: cell.JobKey, Seed: cell.Seed}
	var key resultcache.Key
	tr.do("core.cache_key", root, op, func(int) { key = p.CacheKey(cell) })
	res.Hash = key.Hash()
	id := tr.begin("resultcache.get_miss", root, op)
	payload, ok := st.Get(key)
	if ok {
		tr.rename(id, "resultcache.get_hit")
		tr.rename(root, "daemon.hit")
	}
	tr.end(id)
	if ok {
		res.CacheHit, res.Payload = true, payload
	} else {
		var claimed bool
		ttl := time.Duration(spec.LeaseMS) * time.Millisecond
		tr.do("resultcache.claim", root, op, func(int) { claimed, _ = st.TryClaim(key, spec.Owner, ttl) })
		if !claimed {
			return replayed{}, fmt.Errorf("replay of %v: lease held", r.cell)
		}
		var cellRes *varbench.Result
		var runErr error
		tr.do("runner.pool", root, op, func(pid int) {
			_, err := pool.Do(context.Background(), spec.Priority, 1, func(int) {
				cellRes, _, runErr = cellThroughCache(tr, pid, op, p, st, cell, n)
			})
			if runErr == nil {
				runErr = err
			}
		})
		if runErr == nil {
			tr.do("codec.encode", root, op, func(int) { res.Payload = codec.EncodeResult(cellRes) })
		}
		tr.do("resultcache.release", root, op, func(int) { st.ReleaseClaim(key, spec.Owner) })
		if runErr != nil {
			return replayed{}, runErr
		}
	}
	var buf bytes.Buffer
	tr.do("daemon.encode_json", root, op, func(int) {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(res)
	})
	if err != nil {
		return replayed{}, err
	}
	return replayed{id: r.id, cell: r.cell, sum: sha(res.Payload)}, nil
}

func (w *daemonRun) close() {
	if w.srv != nil {
		w.srv.Close()
		<-w.served
	}
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
	if w.d != nil {
		w.d.Close()
	}
}
