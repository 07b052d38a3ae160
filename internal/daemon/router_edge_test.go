package daemon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ksa/internal/core"
	"ksa/internal/daemon"
	"ksa/internal/resultcache"
)

// newServerForDaemon serves an externally constructed daemon (whose cache
// the test also holds a handle to) and returns its client.
func newServerForDaemon(t *testing.T, d *daemon.Daemon) *daemon.Client {
	t.Helper()
	ts := httptest.NewServer(daemon.NewRouter(d))
	t.Cleanup(ts.Close)
	return &daemon.Client{Base: ts.URL, HTTP: ts.Client()}
}

// submitAndWait runs a job to its terminal state.
func submitAndWait(t *testing.T, cl *daemon.Client, spec daemon.JobSpec) daemon.JobInfo {
	t.Helper()
	info, err := cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	info, err = cl.Wait(context.Background(), info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestRouterDeleteOnTerminalJobs: DELETE is cancellation, and cancelling
// a job that already reached a terminal state must be a 200 no-op that
// reports the unchanged state — not an error, not a state transition.
func TestRouterDeleteOnTerminalJobs(t *testing.T) {
	d, cl := newTestServer(t, 1, false)
	base := strings.TrimRight(cl.Base, "/")

	done := submitAndWait(t, cl, daemon.JobSpec{Type: daemon.TypeExperiment, Exp: "table1"})
	if done.State != daemon.StateDone {
		t.Fatalf("setup job state %s", done.State)
	}

	// A canceled job: cancel before it can start (0-worker trick is not
	// available, so cancel immediately after submit and wait for terminal).
	info, err := d.Submit(daemon.JobSpec{Type: daemon.TypeSweep, Scale: "quick",
		Envs: []string{"native", "kvm-2"}, Trials: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	canceled, err := cl.Wait(context.Background(), info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		id   string
		want daemon.State
	}{
		{"done job", done.ID, daemon.StateDone},
		{"canceled job", canceled.ID, canceled.State}, // canceled (or done if the race finished it)
		{"double delete", canceled.ID, canceled.State},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+tc.id, nil)
		resp, err := cl.HTTP.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var got daemon.JobInfo
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: DELETE returned %d, want 200", tc.name, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if got.State != tc.want {
			t.Fatalf("%s: DELETE moved state to %s, want %s", tc.name, got.State, tc.want)
		}
	}
}

// TestRouterSSEEdgeCases table-drives the replay parameter's edges: a
// since beyond the stream's head replays nothing (and ends cleanly on a
// closed log), the Last-Event-ID header is an alias for ?since, and a
// malformed value in either position is a 400, not a silent since=0.
func TestRouterSSEEdgeCases(t *testing.T) {
	_, cl := newTestServer(t, 1, false)
	base := strings.TrimRight(cl.Base, "/")
	job := submitAndWait(t, cl, daemon.JobSpec{Type: daemon.TypeExperiment, Exp: "table1"})

	get := func(path, lastEventID string) (*http.Response, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, base+path, nil)
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := cl.HTTP.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}
	events := "/v1/jobs/" + job.ID + "/events"

	cases := []struct {
		name        string
		path        string
		lastEventID string
		wantStatus  int
		wantEvents  int // -1: don't care
	}{
		{"replay all", events, "", http.StatusOK, 3}, // queued, started, done
		{"since beyond head", events + "?since=9999", "", http.StatusOK, 0},
		{"since at head", events + "?since=3", "", http.StatusOK, 0},
		{"since mid-stream", events + "?since=2", "", http.StatusOK, 1},
		{"header replay", events, "2", http.StatusOK, 1},
		{"query beats header", events + "?since=9999", "1", http.StatusOK, 0},
		{"malformed since", events + "?since=banana", "", http.StatusBadRequest, -1},
		{"negative since", events + "?since=-1", "", http.StatusBadRequest, -1},
		{"malformed Last-Event-ID", events, "banana", http.StatusBadRequest, -1},
		{"huge since overflows", events + "?since=99999999999999999999", "", http.StatusBadRequest, -1},
	}
	for _, tc := range cases {
		resp, body := get(tc.path, tc.lastEventID)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (body %q)", tc.name, resp.StatusCode, tc.wantStatus, body)
			continue
		}
		if tc.wantEvents >= 0 {
			if got := strings.Count(body, "\nevent: ") + b2i(strings.HasPrefix(body, "event: ")); got != tc.wantEvents {
				t.Errorf("%s: replayed %d events, want %d (body %q)", tc.name, got, tc.wantEvents, body)
			}
		}
		if tc.wantStatus == http.StatusBadRequest && !strings.Contains(body, "error") {
			t.Errorf("%s: 400 without JSON error envelope: %q", tc.name, body)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRouterCellEndpointEdges table-drives POST /v1/cells validation and
// the lease-conflict path: malformed specs are 400s that never touch the
// pool, a live foreign lease is a 409 carrying holder and expiry, and a
// valid spec round-trips a decodable payload.
func TestRouterCellEndpointEdges(t *testing.T) {
	_, cl := newTestServer(t, 1, true)
	base := strings.TrimRight(cl.Base, "/")
	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := cl.HTTP.Post(base+"/v1/cells", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b)
	}

	bad := []struct {
		name, body string
	}{
		{"not json", `{nope`},
		{"no env", `{"scale":"quick"}`},
		{"bad env", `{"env":"mainframe-9"}`},
		{"zero units", `{"env":"kvm-0"}`},
		{"negative trial", `{"env":"native","trial":-1}`},
		{"unknown scale", `{"env":"native","scale":"huge"}`},
		{"unknown fault", `{"env":"native","fault":"gremlins"}`},
		{"negative lease", `{"env":"native","lease_ms":-5}`},
	}
	for _, tc := range bad {
		resp, body := post(tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %q)", tc.name, resp.StatusCode, body)
		}
	}

	// Valid cell: 200 with the cell's identity and a non-empty payload.
	res, err := cl.Cell(context.Background(), daemon.CellSpec{Scale: "quick", Env: "native", Trial: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.JobKey != "native/trial=1" || len(res.Payload) == 0 || res.Seed == 0 {
		t.Fatalf("cell result malformed: key=%q seed=%#x payload=%d bytes", res.JobKey, res.Seed, len(res.Payload))
	}
}

// TestCellEndpointLeaseConflict409: a cell whose key another owner holds
// answers 409 with the holder's identity, and the client surfaces it as
// *LeaseHeldError; after the entry lands on disk the same request is a
// cache hit regardless of any lease.
func TestCellEndpointLeaseConflict409(t *testing.T) {
	cacheDir := t.TempDir()
	cache, err := resultcache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	d := daemon.New(daemon.Config{Workers: 1, Cache: cache, Logf: t.Logf})
	defer d.Close()
	cl := newServerForDaemon(t, d)

	// Hold the cell's key as a foreign owner, exactly as a peer worker
	// in mid-simulation would.
	sc := daemon.ScaleFor("quick", 0)
	sc.Cache = cache
	env, _ := core.ParseEnvSpec("native")
	plan := core.PlanSweep(core.SweepOptions{Scale: sc, Envs: []core.EnvSpec{env}, Trials: 1})
	if ok, _ := cache.TryClaim(plan.CacheKey(plan.Cells[0]), "peer-worker", time.Minute); !ok {
		t.Fatal("could not plant the foreign lease")
	}

	spec := daemon.CellSpec{Scale: "quick", Env: "native", Trial: 0, Owner: "coordinator", LeaseMS: 60000}
	_, err = cl.Cell(context.Background(), spec)
	var held *daemon.LeaseHeldError
	if !errors.As(err, &held) {
		t.Fatalf("lease conflict returned %v, want *LeaseHeldError", err)
	}
	if held.Holder != "peer-worker" || time.Until(held.Expires) <= 0 {
		t.Fatalf("409 body: holder=%q expires=%v", held.Holder, held.Expires)
	}

	// Leaseless requests ignore the sentinel entirely (advisory protocol).
	res, err := cl.Cell(context.Background(), daemon.CellSpec{Scale: "quick", Env: "native", Trial: 0})
	if err != nil {
		t.Fatal(err)
	}

	// The completed entry now beats the still-live foreign lease: the
	// same leased request is served from disk, no 409.
	res2, err := cl.Cell(context.Background(), spec)
	if err != nil {
		t.Fatalf("leased request after completion: %v", err)
	}
	if !res2.CacheHit || !bytes.Equal(res2.Payload, res.Payload) {
		t.Fatalf("completed cell not served from cache (hit=%v)", res2.CacheHit)
	}
}
