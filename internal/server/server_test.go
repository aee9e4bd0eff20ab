package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nocstar/client"
	"nocstar/internal/system"
)

// The e2e tests drive the server exclusively through the public typed
// client package, so every assertion here also exercises the client's
// encoding, error mapping, and streaming paths.

// smallConfig finishes in well under a second; seed varies the run so
// tests that must avoid dedup can diverge.
func smallConfig(seed int64) string {
	return fmt.Sprintf(`{
		"schema": 1, "org": "nocstar", "cores": 4,
		"apps": [{"workload": "gups", "threads": 4}],
		"instr_per_thread": 5000, "seed": %d
	}`, seed)
}

// endlessConfig would simulate for hours; only cancellation ends it.
func endlessConfig(seed int64) string {
	return fmt.Sprintf(`{
		"schema": 1, "org": "nocstar", "cores": 4,
		"apps": [{"workload": "gups", "threads": 4}],
		"instr_per_thread": 1099511627776, "seed": %d
	}`, seed)
}

func newTestServer(t *testing.T, opts Options) (*Server, *client.Client) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, client.New(ts.URL)
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// mustCancel cancels a run, failing the test on transport errors.
func mustCancel(t *testing.T, c *client.Client, id string) {
	t.Helper()
	if _, err := c.Cancel(ctxT(t), id); err != nil {
		t.Fatalf("cancel %s: %v", id, err)
	}
}

// TestSubmitPollByteIdentical is the service's core contract: the
// result served over HTTP is byte-for-byte the marshaled Result of a
// direct in-process Run of the same config.
func TestSubmitPollByteIdentical(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := ctxT(t)
	body := smallConfig(1)

	cfg, err := system.UnmarshalConfig([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := system.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	st, err := c.SubmitRunJSON(ctx, []byte(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.Terminal() {
		t.Fatalf("fresh submission born terminal: %s", st.State)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("run ended %s: %s", final.State, final.Error)
	}
	if !bytes.Equal(final.Result, want) {
		t.Fatalf("HTTP result differs from direct run (%d vs %d bytes)", len(final.Result), len(want))
	}

	// Resubmission is a cache hit with the same bytes.
	again, err := c.SubmitRunJSON(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatalf("resubmit not served from cache: %+v", again)
	}
	if !bytes.Equal(again.Result, want) {
		t.Fatal("cached result differs from direct run")
	}
	if runs, err := c.ListRuns(ctx); err != nil || len(runs) != 2 {
		t.Fatalf("runs list: %d entries, %v; want the run and its cache hit", len(runs), err)
	}

	// The typed decode round-trips too.
	var res system.Result
	if err := final.Decode(&res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
}

// TestSubmitFabricConfig pins the one fabric through the full HTTP
// path: a document that still names a knob of the removed fabric layer
// (topology, slice placement, the way quota) is rejected as
// invalid_config, and the same distributed config without it
// round-trips the decoder, simulates over the mesh, and serves bytes
// identical to the direct run.
func TestSubmitFabricConfig(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := ctxT(t)
	fabricConfig := func(knob string) string {
		return fmt.Sprintf(`{
		"schema": 4, "org": "distributed", "cores": 8,%s
		"apps": [{"workload": "gups", "threads": 8}],
		"instr_per_thread": 5000, "seed": 1
	}`, knob)
	}
	for _, knob := range []string{`"topology": "torus",`, `"placement": "annealed",`,
		`"placement_seed": 4,`, `"qos_max_ctx_ways": 5,`} {
		if _, err := c.SubmitRunJSON(ctx, []byte(fabricConfig(knob))); !errors.Is(err, client.ErrInvalidConfig) {
			t.Fatalf("removed knob %s: %v, want ErrInvalidConfig", knob, err)
		}
	}
	body := fabricConfig("")

	cfg, err := system.UnmarshalConfig([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := system.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	st, err := c.SubmitRunJSON(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("run ended %s: %s", final.State, final.Error)
	}
	if !bytes.Equal(final.Result, want) {
		t.Fatalf("HTTP result differs from direct run (%d vs %d bytes)", len(final.Result), len(want))
	}
}

// TestConcurrentDuplicatesSingleflight hammers one config from many
// goroutines and checks exactly one simulation executed.
func TestConcurrentDuplicatesSingleflight(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 4, QueueDepth: 64})
	ctx := ctxT(t)
	body := []byte(smallConfig(2))

	const clients = 16
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.SubmitRunJSON(ctx, body)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()

	// Every submission resolved to the same job (or a cache hit on it).
	final, err := c.Wait(ctx, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("run ended %s: %s", final.State, final.Error)
	}
	for _, id := range ids {
		st, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.Result, final.Result) {
			t.Fatalf("job %s result differs", id)
		}
	}
	if got := srv.met.executed.Value(); got != 1 {
		t.Fatalf("%d clients caused %d executions, want 1", clients, got)
	}
}

// TestCancellation submits an effectively endless run and checks Cancel
// stops it promptly.
func TestCancellation(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := ctxT(t)
	st, err := c.SubmitRunJSON(ctx, []byte(endlessConfig(3)))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the worker get into the run

	mustCancel(t, c, st.ID)
	start := time.Now()
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateCanceled {
		t.Fatalf("run ended %s, want canceled", final.State)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestRunTimeout checks the WithTimeout deadline cancels a run on its
// own.
func TestRunTimeout(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := ctxT(t)
	blocker, err := c.SubmitRunJSON(ctx, []byte(endlessConfig(4)))
	if err != nil {
		t.Fatal(err)
	}
	// A second distinct endless run with a short deadline.
	timed, err := c.SubmitRunJSON(ctx, []byte(endlessConfig(5)), client.WithTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	// Free the single worker so the timed run gets scheduled.
	mustCancel(t, c, blocker.ID)

	final, err := c.Wait(ctx, timed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateCanceled {
		t.Fatalf("deadlined run ended %s (%s), want canceled", final.State, final.Error)
	}
	if !bytes.Contains([]byte(final.Error), []byte("deadline")) {
		t.Fatalf("error %q does not mention the deadline", final.Error)
	}
}

// TestValidationErrors checks malformed and invalid configs map to the
// typed invalid_config error with per-field diagnoses.
func TestValidationErrors(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := ctxT(t)

	// Invalid config: missing cores, zero threads.
	_, err := c.SubmitRunJSON(ctx,
		[]byte(`{"schema": 1, "org": "nocstar", "apps": [{"workload": "gups", "threads": 0}]}`))
	if !errors.Is(err, client.ErrInvalidConfig) {
		t.Fatalf("invalid config error: %v, want ErrInvalidConfig", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %T is not *client.APIError", err)
	}
	fields := map[string]bool{}
	for _, f := range apiErr.Fields {
		fields[f.Field] = true
	}
	if !fields["Cores"] || !fields["Apps[0].Threads"] {
		t.Fatalf("typed field errors missing: %+v", apiErr.Fields)
	}

	// Unknown field: decode-level rejection, still invalid_config.
	_, err = c.SubmitRunJSON(ctx, []byte(`{"org": "nocstar", "coars": 4}`))
	if !errors.Is(err, client.ErrInvalidConfig) {
		t.Fatalf("unknown field error: %v, want ErrInvalidConfig", err)
	}

	// Bad timeout parameter.
	_, err = c.SubmitRunJSON(ctx, []byte(smallConfig(1)), client.WithTimeout(-1*time.Second))
	if !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("bad timeout error: %v, want ErrBadRequest", err)
	}
}

// TestSubmitRejectsUnbuildableConfig sends documents that once passed
// validation and then panicked the simulator's constructor or run,
// wrapped the thread-capacity check, or (a shootdown every cycle) held
// a worker until its deadline, and documents naming a field schema 5
// or 6 removed: each must get a 400 invalid_config naming the field (a
// validated field in the typed field list, a removed one in the decode
// message), and the server must keep answering.
func TestSubmitRejectsUnbuildableConfig(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := ctxT(t)
	const huge = "4611686018427387904" // 2^62
	doc := func(org, knobs string) string {
		return fmt.Sprintf(`{"org": %q, "cores": 4, %s, "apps": [{"workload": "gups", "threads": 4}]}`,
			org, knobs)
	}
	cases := []struct{ doc, field string }{
		{fmt.Sprintf(`{"org": "nocstar", "cores": 4, "apps": [{"workload": "gups", "threads": %s}, {"workload": "gups", "threads": %s}]}`,
			huge, huge), "Apps[0].Threads"},
		{doc("nocstar", `"smt": `+huge), "SMT"},
		{doc("nocstar", `"ptw": {"pwc_entries": `+huge+`}`), "pwc_entries"},
		{doc("nocstar", `"ptw": {"walkers": `+huge+`}`), "walkers"},
		{doc("nocstar", `"ptw": {"overhead": 15}`), "overhead"},
		{doc("distributed", `"l2_entries_per_core": `+huge), "l2_entries_per_core"},
		{doc("mono-mesh", `"l2_entries_per_core": `+huge), "l2_entries_per_core"},
		{doc("nocstar", `"l1_scale": 1e30`), "L1Scale"},
		{doc("nocstar", `"storm": {"promote_demote_interval": 1000, "pages": `+huge+`}`), "Storm.Pages"},
		{doc("nocstar", `"shootdown_interval": 1`), "ShootdownInterval"},
		{doc("nocstar", `"prefetch_degree": 1000000`), "PrefetchDegree"},
		{doc("mono-fixed", `"fixed_access_latency": 1000000000000000000`), "FixedAccessLatency"},
		{doc("nocstar", `"ptw": {"mode": "fixed", "fixed_latency": 1000000000000000000}`), "PTW.FixedLatency"},
		{doc("nocstar", `"hpc_max": 9223372036854775807`), "HPCmax"},
		{doc("nocstar", `"inv_leaders": 9223372036854775807`), "InvLeaders"},
		{`{"org": "nocstar", "cores": 4, "apps": [{"spec": {"name": "x", "footprint_pages": ` + huge +
			`, "mem_ref_per_instr": 0.3, "base_cpi": 1}, "threads": 4}]}`, "Apps[0].Spec.FootprintPages"},
		{doc("mono-mesh", `"banks": `+huge), "banks"},
		{doc("nocstar", `"warmup_instr": 2000`), "warmup_instr"},
	}
	for _, tc := range cases {
		_, err := c.SubmitRunJSON(ctx, []byte(tc.doc))
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest ||
			!errors.Is(err, client.ErrInvalidConfig) {
			t.Fatalf("%s: got %v, want a 400 invalid_config", tc.doc, err)
		}
		named := strings.Contains(apiErr.Message, `unknown field "`+tc.field+`"`)
		for _, f := range apiErr.Fields {
			named = named || f.Field == tc.field
		}
		if !named {
			t.Fatalf("%s: fields %+v do not name %s", tc.doc, apiErr.Fields, tc.field)
		}
		if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
			t.Fatalf("after %s: health %+v, %v", tc.field, h, err)
		}
	}
	st, err := c.SubmitRunJSON(ctx, []byte(smallConfig(1)))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Wait(ctx, st.ID); err != nil || final.State != client.StateDone {
		t.Fatalf("server stopped running configs: %v %+v", err, final)
	}
}

// TestQueueFull checks backpressure: with one worker and a one-slot
// queue, a burst of distinct long runs sees typed queue-full errors
// with Retry-After.
func TestQueueFull(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	ctx := ctxT(t)
	var accepted []string
	rejected := 0
	for seed := int64(10); seed < 15; seed++ {
		st, err := c.SubmitRunJSON(ctx, []byte(endlessConfig(seed)))
		switch {
		case err == nil:
			accepted = append(accepted, st.ID)
		case errors.Is(err, client.ErrQueueFull):
			rejected++
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.RetryAfter <= 0 {
				t.Fatalf("queue-full error missing Retry-After: %v", err)
			}
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	if len(accepted) == 0 || rejected == 0 {
		t.Fatalf("want a mix of accepted and queue-full, got %d accepted, %d rejected",
			len(accepted), rejected)
	}
	// Unblock the pool so Cleanup's drain does not wait on endless runs.
	for _, id := range accepted {
		mustCancel(t, c, id)
	}
}

// TestEvents reads a live run's SSE stream directly — every "state"
// frame is the run's status without its result, and the last is
// terminal — then checks Wait's SSE path follows the run to its terminal
// state (the client prefers the event stream and only falls back to
// polling when streaming is unavailable, so Wait alone cannot catch a
// broken stream).
func TestEvents(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := ctxT(t)
	st, err := c.SubmitRunJSON(ctx, []byte(smallConfig(6)))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL()+"/v1/runs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("event stream: status %d, %v", resp.StatusCode, err)
	}
	var frames []client.RunStatus
	for _, frame := range strings.Split(strings.TrimSpace(string(raw)), "\n\n") {
		event, data, ok := strings.Cut(frame, "\n")
		if !ok || event != "event: state" || !strings.HasPrefix(data, "data: ") {
			t.Fatalf("malformed frame %q", frame)
		}
		var ev client.RunStatus
		if err := json.Unmarshal([]byte(strings.TrimPrefix(data, "data: ")), &ev); err != nil {
			t.Fatalf("frame %q: %v", frame, err)
		}
		if ev.ID != st.ID || ev.ConfigHash != st.ConfigHash || ev.Result != nil {
			t.Fatalf("frame %+v, want run %s with config hash %s and no result", ev, st.ID, st.ConfigHash)
		}
		frames = append(frames, ev)
	}
	if last := frames[len(frames)-1]; !last.Terminal() {
		t.Fatalf("stream ended in state %s, want a terminal state", last.State)
	}

	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("run ended %s: %s", final.State, final.Error)
	}
	if len(final.Result) == 0 {
		t.Fatal("terminal status has no result payload")
	}
}

// TestReadEndpoints smokes the read-only surface through the client.
func TestReadEndpoints(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := ctxT(t)

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health: %+v, %v", h, err)
	}
	if h.Node == "" || h.Epoch == "" {
		t.Fatalf("health node identity missing: %+v", h)
	}

	wls, err := c.Workloads(ctx)
	if err != nil || len(wls) == 0 {
		t.Fatalf("workloads: %d, %v", len(wls), err)
	}
	seen := false
	for _, w := range wls {
		if w.Name == "canneal" {
			seen = true
		}
	}
	if !seen {
		t.Fatal("workload suite missing canneal")
	}

	exps, err := c.Experiments(ctx)
	if err != nil || len(exps) == 0 {
		t.Fatalf("experiments: %d, %v", len(exps), err)
	}

	runs, err := c.ListRuns(ctx)
	if err != nil || len(runs) != 0 {
		t.Fatalf("fresh server lists %d runs, %v", len(runs), err)
	}

	mets, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mets["nocstar_server_http_requests"]; !ok {
		t.Fatalf("metrics missing request counter: %d samples", len(mets))
	}

	// Unknown run is a typed not-found.
	if _, err := c.GetRun(ctx, "run-999999-nope"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown run error: %v, want ErrNotFound", err)
	}
}

// TestCancelQueuedThenResubmit is the regression test for the stale
// singleflight entry: canceling a job still waiting in the queue must
// deregister its hash immediately, so an identical resubmission gets a
// fresh execution instead of being deduped onto the dead job and told
// "canceled" for a run it never canceled.
func TestCancelQueuedThenResubmit(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	ctx := ctxT(t)

	// Occupy the single worker so the next submission stays queued.
	blocker, err := c.SubmitRunJSON(ctx, []byte(endlessConfig(20)))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	victim := []byte(smallConfig(21))
	queued, err := c.SubmitRunJSON(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel it while queued.
	mustCancel(t, c, queued.ID)

	// Resubmit the identical config: must be a fresh job, not a dedup
	// onto the canceled one.
	fresh, err := c.SubmitRunJSON(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Deduped {
		t.Fatal("resubmission was deduped onto a canceled job")
	}
	if fresh.ID == queued.ID {
		t.Fatalf("resubmission returned the canceled job %s", fresh.ID)
	}

	// Free the worker; the fresh job must execute to done for real.
	mustCancel(t, c, blocker.ID)
	final, err := c.Wait(ctx, fresh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("resubmitted run ended %s: %s", final.State, final.Error)
	}
	if len(final.Result) == 0 {
		t.Fatal("resubmitted run has no result")
	}
}

// TestResubmitAfterCancelRuns: a config resubmitted right after its
// running job is canceled gets a run of its own on the free worker. It
// must not join the canceled run while that run is still stopping and
// end canceled with it.
func TestResubmitAfterCancelRuns(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := ctxT(t)
	body := []byte(`{
		"schema": 1, "org": "nocstar", "cores": 8,
		"apps": [{"workload": "gups", "threads": 8}],
		"instr_per_thread": 1000000, "seed": 22
	}`)

	first, err := c.SubmitRunJSON(ctx, body)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the run to start", func() bool {
		st, err := c.GetRun(ctx, first.ID)
		return err == nil && st.State == client.StateRunning
	})
	time.Sleep(100 * time.Millisecond) // let the run get under way
	mustCancel(t, c, first.ID)

	again, err := c.SubmitRunJSON(ctx, body)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("resubmitted run ended %s: %s", final.State, final.Error)
	}
}

// TestTerminalJobHistoryBounded is the regression test for unbounded
// registry growth: under sweep-replay traffic (every cache hit used to
// register a job forever), the registry must stay within the terminal
// history cap.
func TestTerminalJobHistoryBounded(t *testing.T) {
	const histCap = 8
	srv, c := newTestServer(t, Options{Workers: 1, JobHistory: histCap})
	ctx := ctxT(t)
	body := []byte(smallConfig(30))

	st, err := c.SubmitRunJSON(ctx, body)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Wait(ctx, st.ID); err != nil || final.State != client.StateDone {
		t.Fatalf("run: %v %+v", err, final)
	}

	// 10x the cap in cache-hit submissions.
	for i := 0; i < 10*histCap; i++ {
		hit, err := c.SubmitRunJSON(ctx, body)
		if err != nil || !hit.Cached {
			t.Fatalf("submission %d: %v cached=%v", i, err, hit.Cached)
		}
	}

	srv.mu.Lock()
	jobs, order := len(srv.jobs), len(srv.order)
	srv.mu.Unlock()
	if jobs > histCap || order > histCap {
		t.Fatalf("registry grew to %d jobs / %d order entries, cap %d", jobs, order, histCap)
	}
	if jobs == 0 {
		t.Fatal("history pruned everything")
	}
}

// TestHistoryKeepsOlderLiveJob: a live job registered before the
// terminal jobs that fill the history is never evicted; the terminal
// jobs around it are, oldest first, and once it ends it is counted and
// pruned like the rest.
func TestHistoryKeepsOlderLiveJob(t *testing.T) {
	const histCap = 4
	srv, c := newTestServer(t, Options{Workers: 1, JobHistory: histCap})
	ctx := ctxT(t)
	small := []byte(smallConfig(31))

	first, err := c.SubmitRunJSON(ctx, small)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Wait(ctx, first.ID); err != nil || final.State != client.StateDone {
		t.Fatalf("run: %v %+v", err, final)
	}
	live, err := c.SubmitRunJSON(ctx, []byte(endlessConfig(31)))
	if err != nil {
		t.Fatal(err)
	}
	var hits []string
	for i := 0; i < 3*histCap; i++ {
		hit, err := c.SubmitRunJSON(ctx, small)
		if err != nil || !hit.Cached {
			t.Fatalf("submission %d: %v cached=%v", i, err, hit.Cached)
		}
		hits = append(hits, hit.ID)
	}

	srv.mu.Lock()
	_, liveKept := srv.jobs[live.ID]
	_, firstKept := srv.jobs[first.ID]
	want := append([]string{live.ID}, hits[len(hits)-histCap:]...)
	order, terminal := slices.Clone(srv.order), srv.terminal
	srv.mu.Unlock()
	if !liveKept || firstKept {
		t.Fatalf("live job kept %v, oldest terminal job kept %v; want true, false", liveKept, firstKept)
	}
	if !slices.Equal(order, want) || terminal != histCap {
		t.Fatalf("order %v with %d terminal, want %v with %d", order, terminal, want, histCap)
	}

	mustCancel(t, c, live.ID)
	if _, err := c.SubmitRunJSON(ctx, small); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	_, liveKept = srv.jobs[live.ID]
	jobs, terminal := len(srv.jobs), srv.terminal
	srv.mu.Unlock()
	if liveKept || jobs != histCap || terminal != histCap {
		t.Fatalf("after cancel: live job kept %v, %d jobs, %d terminal; want false, %d, %d",
			liveKept, jobs, terminal, histCap, histCap)
	}
}

// TestHealthDraining is the regression test for the load-balancer trap:
// a draining node must fail its health check (503), not report 200 with
// a body the balancer never reads.
func TestHealthDraining(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := ctxT(t)

	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthy node: %+v, %v", h, err)
	}

	sctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(ctx)
	if err == nil {
		t.Fatal("draining node passed its health check")
	}
	if h.Status != "draining" {
		t.Fatalf("draining body: %+v", h)
	}
}

// TestShutdownDrains checks graceful shutdown finishes in-flight work
// and then refuses new submissions with the typed draining error.
func TestShutdownDrains(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := ctxT(t)

	st, err := c.SubmitRunJSON(ctx, []byte(smallConfig(7)))
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The in-flight run completed rather than being killed.
	final, err := c.GetRun(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("drained run ended %s: %s", final.State, final.Error)
	}

	// New work is refused.
	if _, err := c.SubmitRunJSON(ctx, []byte(smallConfig(8))); !errors.Is(err, client.ErrDraining) {
		t.Fatalf("post-shutdown submit: %v, want ErrDraining", err)
	}
}

// directBytes is the byte-identity reference: json.Marshal of a direct
// in-process Run of the config.
func directBytes(t *testing.T, body string) []byte {
	t.Helper()
	cfg, err := system.UnmarshalConfig([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	res, err := system.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func hashOf(t *testing.T, body string) string {
	t.Helper()
	cfg, err := system.UnmarshalConfig([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	h, err := cfg.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// cfgWith builds a config with a chosen seed and instruction count, so
// tests control both identity and run duration.
func cfgWith(seed, instr int64) string {
	return fmt.Sprintf(`{
		"schema": 1, "org": "nocstar", "cores": 4,
		"apps": [{"workload": "gups", "threads": 4}],
		"instr_per_thread": %d, "seed": %d
	}`, instr, seed)
}

// TestRestartSurvival populates the persistent store through one server,
// shuts it down, and verifies a brand-new server over the same directory
// serves the result as a cache hit — byte-identical, zero executions.
func TestRestartSurvival(t *testing.T) {
	dir := t.TempDir()
	body := smallConfig(40)
	want := directBytes(t, body)
	ctx := ctxT(t)

	srv1, c1 := newTestServer(t, Options{Workers: 2, StoreDir: dir})
	st, err := c1.SubmitRunJSON(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c1.Wait(ctx, st.ID); err != nil || final.State != client.StateDone {
		t.Fatalf("run: %v %+v", err, final)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv1.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, hashOf(t, body)+".json")); err != nil {
		t.Fatalf("store directory holds no blob for the run: %v", err)
	}

	// "Restart": a fresh server over the same store directory.
	srv2, c2 := newTestServer(t, Options{Workers: 2, StoreDir: dir})
	hit, err := c2.SubmitRunJSON(ctx, []byte(body))
	if err != nil || !hit.Cached {
		t.Fatalf("post-restart submit: %v cached=%v", err, hit.Cached)
	}
	if !bytes.Equal(hit.Result, want) {
		t.Fatalf("post-restart result differs from direct run (%d vs %d bytes)", len(hit.Result), len(want))
	}
	if got := srv2.met.executed.Value(); got != 0 {
		t.Fatalf("restarted server executed %d runs, want 0", got)
	}
}

// TestSweepSSE is the batch contract: POST /v1/sweeps streams one
// result frame per config as it completes — each embedding the raw
// Result bytes, identical to a direct system.Run — and closes with a
// summary. A duplicated config still yields a frame per index.
func TestSweepSSE(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	ctx := ctxT(t)

	bodies := []string{smallConfig(70), smallConfig(71), smallConfig(70)}
	wants := make([][]byte, len(bodies))
	for i, b := range bodies {
		wants[i] = directBytes(t, b)
	}

	seen := map[int]bool{}
	var results []client.SweepResult
	summary, err := c.SweepJSON(ctx, []byte("["+strings.Join(bodies, ",")+"]"),
		func(sr client.SweepResult) error {
			if seen[sr.Index] {
				t.Fatalf("index %d streamed twice", sr.Index)
			}
			seen[sr.Index] = true
			results = append(results, sr)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	if len(results) != len(bodies) {
		t.Fatalf("%d result frames, want %d", len(results), len(bodies))
	}
	for _, r := range results {
		if r.State != client.StateDone {
			t.Fatalf("config %d ended %s: %s", r.Index, r.State, r.Error)
		}
		if !bytes.Equal(r.Result, wants[r.Index]) {
			t.Fatalf("config %d: streamed result differs from direct run (%d vs %d bytes)",
				r.Index, len(r.Result), len(wants[r.Index]))
		}
	}
	if summary.Total != 3 || summary.Done != 3 || summary.Failed != 0 || summary.Canceled != 0 {
		t.Fatalf("summary %+v", summary)
	}
}

// TestSweepValidation: an invalid element fails the whole batch with a
// typed invalid-config error naming the index, before any streaming.
func TestSweepValidation(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := ctxT(t)

	_, err := c.SweepJSON(ctx,
		[]byte(`[`+smallConfig(80)+`, {"schema": 1, "org": "nocstar", "apps": []}]`), nil)
	if !errors.Is(err, client.ErrInvalidConfig) {
		t.Fatalf("invalid element: %v, want ErrInvalidConfig", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || !strings.Contains(apiErr.Message, "config[1]") {
		t.Fatalf("error does not name the offending index: %v", err)
	}

	// Not an array at all.
	if _, err := c.SweepJSON(ctx, []byte(`{"not":"an array"}`), nil); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("non-array: %v, want ErrBadRequest", err)
	}
}

// TestSweepServesFromStore: a sweep resubmitted end-to-end is all cache
// hits — zero new executions — with byte-identical frames.
func TestSweepServesFromStore(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 2})
	ctx := ctxT(t)
	payload := []byte("[" + smallConfig(90) + "," + smallConfig(91) + "]")

	first := map[int][]byte{}
	if _, err := c.SweepJSON(ctx, payload, func(sr client.SweepResult) error {
		first[sr.Index] = sr.Result
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	executed := srv.met.executed.Value()
	if executed != 2 {
		t.Fatalf("first sweep executed %d, want 2", executed)
	}

	summary, err := c.SweepJSON(ctx, payload, func(sr client.SweepResult) error {
		if !sr.Cached {
			t.Fatalf("replayed config %d not served from store", sr.Index)
		}
		if !bytes.Equal(sr.Result, first[sr.Index]) {
			t.Fatalf("replayed config %d differs from first sweep", sr.Index)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.met.executed.Value() != executed {
		t.Fatal("replayed sweep re-executed configs")
	}
	if summary.CacheHits != 2 {
		t.Fatalf("replayed sweep cache hits %d, want 2", summary.CacheHits)
	}
}

// TestSubmitBodyTooLarge: a run body over the 1 MiB limit is refused
// with 413 and a typed bad request naming the limit — whether its length
// is declared or it arrives chunked — not truncated and misreported as
// an invalid config.
func TestSubmitBodyTooLarge(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 1})
	ctx := ctxT(t)
	// A valid config padded past the limit with trailing whitespace.
	body := smallConfig(95) + strings.Repeat(" ", maxConfigBytes)
	_, err := c.SubmitRunJSON(ctx, []byte(body))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge ||
		!errors.Is(err, client.ErrBadRequest) || !strings.Contains(apiErr.Message, strconv.Itoa(maxConfigBytes)) {
		t.Fatalf("oversized run body: %v, want 413 bad_request naming %d", err, maxConfigBytes)
	}

	// Chunked: no declared length, so the limit trips mid-read.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL()+"/v1/runs",
		io.MultiReader(strings.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(raw), `"bad_request"`) {
		t.Fatalf("chunked oversized body: status %d %s", resp.StatusCode, raw)
	}
	if got := srv.met.invalid.Value(); got != 0 {
		t.Fatalf("oversized bodies counted as %d invalid configs", got)
	}
	// The same config within the limit is accepted.
	if _, err := c.SubmitRunJSON(ctx, []byte(smallConfig(95))); err != nil {
		t.Fatal(err)
	}
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestSweepBodyTooLarge: a sweep body over its 64 MiB limit is refused
// with 413 rather than cut short and reported as a malformed array (the
// body is declared, not sent, so the test stays small), and one element
// over the per-config limit fails the batch naming it.
func TestSweepBodyTooLarge(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 1})
	ctx := ctxT(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/sweeps",
		io.MultiReader(strings.NewReader("["+smallConfig(96)), io.LimitReader(spaces{}, maxSweepBytes)))
	req.ContentLength = maxSweepBytes + 1
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"bad_request"`) ||
		!strings.Contains(rec.Body.String(), strconv.Itoa(maxSweepBytes)) {
		t.Fatalf("oversized sweep body: status %d %s", rec.Code, rec.Body)
	}

	padded := `{"schema": 1` + strings.Repeat(" ", maxConfigBytes) + `}`
	_, err := c.SweepJSON(ctx, []byte("["+smallConfig(96)+","+padded+"]"), nil)
	var apiErr *client.APIError
	if !errors.Is(err, client.ErrBadRequest) || !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest ||
		!strings.Contains(apiErr.Message, "config[1]") {
		t.Fatalf("oversized sweep element: %v, want 400 bad_request naming config[1]", err)
	}
}
