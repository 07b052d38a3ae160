package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ksa/internal/core"
	"ksa/internal/density"
	"ksa/internal/runner"
)

// density-churn: the default-scale high-density grid, 3 surfaces x
// {1000, 4000, 10000} ephemeral tenants. Per-tenant kernel construction,
// teardown and sketch ingest dominate; no result store is involved. The
// run's seed is the grid's root seed, which draws every cell's arrivals.
type densityRun struct {
	cfg     config
	sc      core.Scale
	exec    *recExec
	digest  string
	tenants atomic.Int64 // tenants simulated by traced rounds
	events  atomic.Uint64
	runnerStats
}

func newDensity(cfg config) instance {
	return &densityRun{cfg: cfg, exec: &recExec{}}
}

// recExec runs fan-outs like runner.Inline and keeps their metrics, so the
// per-cell host times of an entry point that does not return them can be
// read from outside the program. With a tracer it also wraps the fan-out in
// a runner.map span and each job in a density.run span; op numbers the
// jobs from opBase+1.
type recExec struct {
	tr     *tracer
	opBase int
	mu     sync.Mutex
	ms     []runner.Metrics
}

func (e *recExec) Do(ctx context.Context, priority, n int, fn func(job int)) (runner.Metrics, error) {
	job := fn
	sid := e.tr.begin("runner.map", 0, 0)
	if e.tr != nil {
		job = func(j int) { e.tr.do("density.run", sid, e.opBase+j+1, func(int) { fn(j) }) }
	}
	m, err := runner.Inline{Workers: workers}.Do(ctx, priority, n, job)
	e.tr.end(sid)
	e.mu.Lock()
	e.ms = append(e.ms, m)
	e.mu.Unlock()
	return m, err
}

// take returns and forgets the metrics recorded so far.
func (e *recExec) take() []runner.Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	ms := e.ms
	e.ms = nil
	return ms
}

// setup warms the density model up: one small cell per surface, so lazy
// initialisation and heap growth are paid before timing.
func (w *densityRun) setup(tr *tracer) error {
	w.sc = core.DefaultScale()
	w.sc.Seed = w.cfg.seed
	w.sc.Exec = w.exec
	for _, s := range density.Surfaces {
		tr.do("density.warmup", 0, 0, func(int) {
			density.Run(density.Options{Surface: s, Tenants: 200, RequestsPerTenant: 2,
				Seed: runner.DeriveSeed(w.cfg.seed, "warmup/"+s.String())})
		})
	}
	return nil
}

func (w *densityRun) round(i int) (roundOut, error) {
	res, err := core.RunDensityContext(context.Background(), w.sc)
	if err != nil {
		return roundOut{}, err
	}
	out := roundOut{attempted: len(res.Rows), digest: sha([]byte(res.CSV()))}
	for _, m := range w.exec.take() {
		out.ops = append(out.ops, m.JobWall...)
	}
	w.digest = out.digest
	return out, nil
}

// tracedRound runs RunDensityContext itself, on an executor that puts each
// cell's job under a density.run span. The job also reduces the cell to its
// row, which is a small share of it.
func (w *densityRun) tracedRound(tr *tracer, i int) (string, error) {
	exec := &recExec{tr: tr, opBase: i * 1000}
	sc := w.sc
	sc.Exec = exec
	res, err := core.RunDensityContext(context.Background(), sc)
	if err != nil {
		return "", err
	}
	for _, m := range exec.take() {
		w.noteRunner(m)
	}
	for _, r := range res.Rows {
		w.tenants.Add(int64(r.Tenants))
		w.events.Add(r.Events)
	}
	var digest string
	tr.do("core.render", 0, 0, func(int) {
		_ = res.Render()
		digest = sha([]byte(res.CSV()))
	})
	return digest, nil
}

func (w *densityRun) traced(tr *tracer, budget time.Duration) (tracedOut, error) {
	out, err := tracedBatch(w, tr, budget)
	if err != nil {
		return out, err
	}
	spans := tr.snapshot()
	busy := sumDur(spans, "density.run").Seconds()
	out.layers["density.tenants_per_s"] = float64(w.tenants.Load()) / busy
	out.layers["density.events"] = float64(w.events.Load()) / float64(out.rounds)
	out.notes = append(out.notes,
		fmt.Sprintf("density.tenants_per_s base: %d tenants in %.3f busy s", w.tenants.Load(), busy),
		w.runnerLayers(out.layers))
	return out, nil
}

func (w *densityRun) pins() map[string]string { return map[string]string{"csv_sha256": w.digest} }

func (w *densityRun) prepare() (attempted, failed int) { return 0, 0 }

func (w *densityRun) close() {}
