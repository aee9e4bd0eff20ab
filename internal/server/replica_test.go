package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nocstar/client"
	"nocstar/internal/metrics"
	"nocstar/internal/store"
	"nocstar/internal/system"
)

// The replica contract: servers sharing one store directory, and
// nothing else, run each config once between them, survive the death
// of the replica running it, and resolve every job ID any of them
// minted.

// replica is one booted server with its own listener, so it can be
// killed independently of the others sharing its store.
type replica struct {
	srv  *Server
	base string
	hs   *http.Server
	c    *client.Client
}

// bootReplica starts a server over opts on a fresh loopback listener.
func bootReplica(t *testing.T, opts Options) replica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Shutdown(ctx)
	})
	return replica{srv: srv, base: base, hs: hs, c: client.New(base)}
}

// killReplica hard-kills a replica: its listener and connections close
// at once and its in-flight runs are canceled, releasing their leases.
func killReplica(r replica) {
	r.hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.srv.Shutdown(ctx)
}

// waitFor polls cond until it holds, failing the test after a minute.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// runTo submits body to c and follows it to a terminal status.
func runTo(ctx context.Context, c *client.Client, body string) (client.RunStatus, error) {
	st, err := c.SubmitRunJSON(ctx, []byte(body))
	if err != nil || st.Terminal() {
		return st, err
	}
	return c.Wait(ctx, st.ID)
}

// TestTwoNodeProxy is the exactly-once contract: the same config,
// submitted concurrently to two replicas over one store, executes once
// in total, and both answers are byte-identical to a direct Run.
func TestTwoNodeProxy(t *testing.T) {
	dir := t.TempDir()
	a := bootReplica(t, Options{Workers: 2, StoreDir: dir})
	b := bootReplica(t, Options{Workers: 2, StoreDir: dir})
	ctx := ctxT(t)
	body := cfgWith(50, 40000)
	want := directBytes(t, body)

	var wg sync.WaitGroup
	start := make(chan struct{})
	finals := make([]client.RunStatus, 2)
	errs := make([]error, 2)
	for i, r := range []replica{a, b} {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			<-start
			finals[i], errs[i] = runTo(ctx, c, body)
		}(i, r.c)
	}
	close(start)
	wg.Wait()
	for i, final := range finals {
		if errs[i] != nil || final.State != client.StateDone {
			t.Fatalf("replica %d: %v, state %s: %s", i, errs[i], final.State, final.Error)
		}
		if !bytes.Equal(final.Result, want) {
			t.Fatalf("replica %d: result differs from direct run (%d vs %d bytes)", i, len(final.Result), len(want))
		}
	}
	if got := a.srv.met.executed.Value() + b.srv.met.executed.Value(); got != 1 {
		t.Fatalf("%d executions across both replicas, want 1", got)
	}

	// Either replica now serves the config from the shared store.
	for _, r := range []replica{a, b} {
		hit, err := r.c.SubmitRunJSON(ctx, []byte(body))
		if err != nil || !hit.Cached || !bytes.Equal(hit.Result, want) {
			t.Fatalf("resubmit on %s: %v cached=%v", r.base, err, hit.Cached)
		}
	}
	if got := a.srv.met.executed.Value() + b.srv.met.executed.Value(); got != 1 {
		t.Fatalf("resubmission re-executed (%d executions)", got)
	}
}

// TestKillOwnerMidSweep is the headline resilience contract: the same
// sweep is sent to replicas B and A, and B is killed while it holds the
// lease on a leg A is following. A takes that leg over, and its stream
// still carries exactly one done, byte-identical frame per leg with an
// exact summary; every execution beyond one per leg is a counted
// takeover; and every leg ID either stream carried resolves as done,
// byte-identically, on A and on a third replica C.
func TestKillOwnerMidSweep(t *testing.T) {
	dir := t.TempDir()
	a := bootReplica(t, Options{Workers: 2, StoreDir: dir})
	b := bootReplica(t, Options{Workers: 1, StoreDir: dir})
	c := bootReplica(t, Options{Workers: 1, StoreDir: dir})
	ctx := ctxT(t)

	const legs, slowInstr = 6, 120000
	bodies := make([]string, legs)
	wants := make([][]byte, legs)
	for i := range bodies {
		bodies[i] = cfgWith(int64(200+i), slowInstr)
		wants[i] = directBytes(t, bodies[i])
	}
	payload := []byte("[" + strings.Join(bodies, ",") + "]")

	// B streams the sweep until it dies.
	var mu sync.Mutex
	var bFrames []client.SweepResult
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		b.c.SweepJSON(ctx, payload, func(sr client.SweepResult) error {
			mu.Lock()
			bFrames = append(bFrames, sr)
			mu.Unlock()
			return nil
		})
	}()
	waitFor(t, "B to execute a leg", func() bool { return b.srv.met.executed.Value() > 0 })

	// A gets the same sweep once B holds a leg's lease, so A follows that
	// leg; B dies while A waits on it.
	type sweepOut struct {
		summary client.SweepSummary
		err     error
	}
	aDone := make(chan sweepOut, 1)
	frames := map[int]client.SweepResult{}
	go func() {
		summary, err := a.c.SweepJSON(ctx, payload, func(sr client.SweepResult) error {
			if _, dup := frames[sr.Index]; dup {
				t.Errorf("index %d streamed twice", sr.Index)
			}
			frames[sr.Index] = sr
			return nil
		})
		aDone <- sweepOut{summary, err}
	}()
	waitFor(t, "A to follow a leg B holds", func() bool { return a.srv.met.leaseWaits.Value() > 0 })
	killReplica(b)
	out := <-aDone
	<-bDone
	summary, err := out.summary, out.err
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}

	if summary.Total != legs || summary.Done != legs || summary.Failed != 0 ||
		summary.Canceled != 0 || summary.Unsubmitted != 0 {
		t.Fatalf("summary %+v, want all %d done", summary, legs)
	}
	if len(frames) != legs {
		t.Fatalf("%d frames, want %d", len(frames), legs)
	}
	for i := range bodies {
		fr, ok := frames[i]
		if !ok {
			t.Fatalf("leg %d lost", i)
		}
		if fr.State != client.StateDone || !bytes.Equal(fr.Result, wants[i]) {
			t.Fatalf("leg %d: state %s, result differs from direct run (%d vs %d bytes)",
				i, fr.State, len(fr.Result), len(wants[i]))
		}
	}

	// B died holding a leg A followed, so A took at least that leg over;
	// every execution beyond one per leg re-ran a leg B gave up, and A
	// counted taking it over — never a silent duplicate.
	takeovers := a.srv.met.takeovers.Value()
	totalExec := a.srv.met.executed.Value() + b.srv.met.executed.Value() + c.srv.met.executed.Value()
	t.Logf("executions: A %d, B %d, C %d; A followed %d legs and took over %d",
		a.srv.met.executed.Value(), b.srv.met.executed.Value(), c.srv.met.executed.Value(),
		a.srv.met.leaseWaits.Value(), takeovers)
	if takeovers == 0 {
		t.Fatal("B died holding a leg A followed, but A counted no takeover")
	}
	if extra := int64(totalExec) - legs; extra < 0 || uint64(extra) > takeovers {
		t.Fatalf("%d executions for %d legs with %d counted takeovers: silent duplication",
			totalExec, legs, takeovers)
	}

	ids := map[string]int{}
	for i := range bodies {
		ids[frames[i].ID] = i
	}
	mu.Lock()
	for _, fr := range bFrames {
		ids[fr.ID] = fr.Index
	}
	mu.Unlock()
	for id, i := range ids {
		for _, r := range []replica{a, c} {
			st, err := r.c.GetRun(ctx, id)
			if err != nil {
				t.Fatalf("leg %d: resolving %s on %s: %v", i, id, r.base, err)
			}
			if st.State != client.StateDone || !bytes.Equal(st.Result, wants[i]) {
				t.Fatalf("leg %d: %s resolved on %s as %s with %d bytes", i, id, r.base, st.State, len(st.Result))
			}
		}
	}
}

// TestSweepSplitsAcrossReplicas: the same sweep sent to two replicas
// splits between them — each leg is claimed by one and followed by the
// other — so both streams carry every leg, byte-identical, and each leg
// executes once in total.
func TestSweepSplitsAcrossReplicas(t *testing.T) {
	dir := t.TempDir()
	a := bootReplica(t, Options{Workers: 1, StoreDir: dir})
	b := bootReplica(t, Options{Workers: 1, StoreDir: dir})
	ctx := ctxT(t)
	const legs = 6
	bodies := make([]string, legs)
	wants := make([][]byte, legs)
	for i := range bodies {
		bodies[i] = cfgWith(int64(700+i), 40000)
		wants[i] = directBytes(t, bodies[i])
	}
	payload := []byte("[" + strings.Join(bodies, ",") + "]")

	var wg sync.WaitGroup
	for _, r := range []replica{a, b} {
		wg.Add(1)
		go func(r replica) {
			defer wg.Done()
			summary, err := r.c.SweepJSON(ctx, payload, func(sr client.SweepResult) error {
				if sr.State != client.StateDone || !bytes.Equal(sr.Result, wants[sr.Index]) {
					t.Errorf("%s leg %d: state %s, %d bytes", r.base, sr.Index, sr.State, len(sr.Result))
				}
				return nil
			})
			if err != nil || summary.Done != legs {
				t.Errorf("%s sweep: %v %+v", r.base, err, summary)
			}
		}(r)
	}
	wg.Wait()
	ea, eb := a.srv.met.executed.Value(), b.srv.met.executed.Value()
	if ea+eb != legs || ea == 0 || eb == 0 {
		t.Fatalf("executions A %d, B %d: want %d in total, split between both", ea, eb, legs)
	}
}

// TestReplicationSurvivesOwnerDeath: a run executed on B outlives B.
// Replica C serves B's job ID byte-identically without executing
// anything, and a resubmission of the config is a cache hit.
func TestReplicationSurvivesOwnerDeath(t *testing.T) {
	dir := t.TempDir()
	b := bootReplica(t, Options{Workers: 2, StoreDir: dir})
	c := bootReplica(t, Options{Workers: 2, StoreDir: dir})
	ctx := ctxT(t)
	body := cfgWith(300, 5000)
	want := directBytes(t, body)

	st, err := runTo(ctx, b.c, body)
	if err != nil || st.State != client.StateDone {
		t.Fatalf("run: %v %+v", err, st)
	}
	killReplica(b)

	got, err := c.c.GetRun(ctx, st.ID)
	if err != nil {
		t.Fatalf("resolving %s on a survivor: %v", st.ID, err)
	}
	if got.State != client.StateDone || !bytes.Equal(got.Result, want) {
		t.Fatalf("survivor served %s with %d bytes", got.State, len(got.Result))
	}
	hit, err := c.c.SubmitRunJSON(ctx, []byte(body))
	if err != nil || !hit.Cached || !bytes.Equal(hit.Result, want) {
		t.Fatalf("post-death resubmit: %v cached=%v", err, hit.Cached)
	}
	if exec := c.srv.met.executed.Value(); exec != 0 {
		t.Fatalf("survivor executed %d runs, want 0", exec)
	}
}

// TestMembershipChurnResolvable: a replica booted after the runs
// resolves every earlier job ID, including one still running elsewhere
// (its event stream follows the run to done), and the IDs keep
// resolving after it leaves.
func TestMembershipChurnResolvable(t *testing.T) {
	dir := t.TempDir()
	a := bootReplica(t, Options{Workers: 2, StoreDir: dir})
	b := bootReplica(t, Options{Workers: 2, StoreDir: dir})
	ctx := ctxT(t)

	bodyA, bodyB := cfgWith(400, 5000), cfgWith(401, 5000)
	stA, err := runTo(ctx, a.c, bodyA)
	if err != nil || stA.State != client.StateDone {
		t.Fatalf("run A: %v %+v", err, stA)
	}
	stB, err := runTo(ctx, b.c, bodyB)
	if err != nil || stB.State != client.StateDone {
		t.Fatalf("run B: %v %+v", err, stB)
	}
	slow := cfgWith(402, 120000)
	want := directBytes(t, slow)
	running, err := a.c.SubmitRunJSON(ctx, []byte(slow))
	if err != nil {
		t.Fatal(err)
	}

	joiner := bootReplica(t, Options{Workers: 2, StoreDir: dir})
	final, err := joiner.c.Wait(ctx, running.ID)
	if err != nil || final.State != client.StateDone || !bytes.Equal(final.Result, want) {
		t.Fatalf("following a run on another replica: %v %s with %d bytes", err, final.State, len(final.Result))
	}
	for _, id := range []string{stA.ID, stB.ID, running.ID} {
		for _, r := range []replica{a, b, joiner} {
			st, err := r.c.GetRun(ctx, id)
			if err != nil || st.State != client.StateDone || len(st.Result) == 0 {
				t.Fatalf("after join: %s on %s: %v %+v", id, r.base, err, st)
			}
		}
	}
	if got := joiner.srv.met.executed.Value(); got != 0 {
		t.Fatalf("joiner executed %d runs resolving IDs, want 0", got)
	}

	killReplica(joiner)
	for _, id := range []string{stA.ID, stB.ID, running.ID} {
		for _, r := range []replica{a, b} {
			st, err := r.c.GetRun(ctx, id)
			if err != nil || st.State != client.StateDone {
				t.Fatalf("after leave: %s on %s: %v %+v", id, r.base, err, st)
			}
		}
	}
}

// TestLeaseTakeoverAfterCrash plants the lease a SIGKILLed replica
// leaves behind — claimed, never renewed again — for a config's hash,
// then submits that config. The replica waits on the orphan rather than
// running, takes the hash over once the lease goes stale, executes it
// once and counts one takeover. The orphan is backdated so it goes
// stale soon instead of after a full LeaseTTL.
func TestLeaseTakeoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	body := cfgWith(600, 5000)
	hash := hashOf(t, body)
	want := directBytes(t, body)

	crashed, err := store.OpenDir(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crashed.Claim(hash); err != nil {
		t.Fatal(err)
	}
	const staleIn = 1500 * time.Millisecond
	orphan := filepath.Join(dir, ".leases", hash+".1")
	renewed := time.Now().Add(-store.LeaseTTL + staleIn)
	if err := os.Chtimes(orphan, renewed, renewed); err != nil {
		t.Fatal(err)
	}

	srv, c := newTestServer(t, Options{Workers: 1, StoreDir: dir})
	ctx := ctxT(t)
	st, err := c.SubmitRunJSON(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the job to follow the orphaned lease", func() bool { return srv.met.leaseWaits.Value() == 1 })
	if cur, err := c.GetRun(ctx, st.ID); err != nil || cur.State != client.StateRunning || srv.met.executed.Value() != 0 {
		t.Fatalf("while the orphan is live: %v state %s, %d executions", err, cur.State, srv.met.executed.Value())
	}

	final, err := c.Wait(ctx, st.ID)
	if err != nil || final.State != client.StateDone || !bytes.Equal(final.Result, want) {
		t.Fatalf("after takeover: %v %s with %d bytes", err, final.State, len(final.Result))
	}
	if time.Now().Before(renewed.Add(store.LeaseTTL)) {
		t.Fatal("finished before the orphaned lease went stale")
	}
	if exec, took := srv.met.executed.Value(), srv.met.takeovers.Value(); exec != 1 || took != 1 {
		t.Fatalf("%d executions and %d takeovers, want 1 and 1", exec, took)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".leases", "*")); len(left) != 0 {
		t.Fatalf("leases left behind: %v", left)
	}
}

// TestRemoteCancel: a run leased by replica A shows as running on
// replica C, and a DELETE of its ID on C reaches A through the store:
// A cancels the run on its next renewal pass, and with nothing stored
// the ID then resolves nowhere else.
func TestRemoteCancel(t *testing.T) {
	dir := t.TempDir()
	a := bootReplica(t, Options{Workers: 1, StoreDir: dir})
	c := bootReplica(t, Options{Workers: 1, StoreDir: dir})
	ctx := ctxT(t)

	st, err := a.c.SubmitRunJSON(ctx, []byte(endlessConfig(610)))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the run to start", func() bool { return a.srv.met.executed.Value() == 1 })
	remote, err := c.c.GetRun(ctx, st.ID)
	if err != nil || remote.State != client.StateRunning {
		t.Fatalf("remote view of a leased run: %v %+v", err, remote)
	}
	waited := make(chan error, 1)
	go func() {
		_, err := c.c.Wait(ctx, st.ID)
		waited <- err
	}()

	if _, err := c.c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("remote cancel: %v", err)
	}
	final, err := a.c.Wait(ctx, st.ID)
	if err != nil || final.State != client.StateCanceled {
		t.Fatalf("holder after remote cancel: %v %+v", err, final)
	}
	if err := <-waited; !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("remote wait on a canceled run: %v, want ErrNotFound", err)
	}
	if _, err := c.c.GetRun(ctx, st.ID); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("canceled remote run: %v, want ErrNotFound", err)
	}
}

// FuzzAdoptBlob drops arbitrary bytes into a store directory as a
// result blob and reads them through the server's store path: they are
// served only if they decode as a Result (and then byte for byte), a
// served blob spliced into a status and a sweep frame gives the bytes
// encoding/json gives, every refusal is counted, and a later Put of a
// real result replaces a refused blob. A good blob padded with
// whitespace, and one with a raw '<' in a string (json.Marshal writes
// \u003c), decode as Results but are refused: spliced as they are,
// they would not match.
func FuzzAdoptBlob(f *testing.F) {
	cfg, err := system.UnmarshalConfig([]byte(cfgWith(1, 500)))
	if err != nil {
		f.Fatal(err)
	}
	res, err := system.Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	padded := append(append([]byte(" \n"), good...), "\t\n"...)
	rawLT := bytes.Replace(good, []byte(`"Name":"gups"`), []byte(`"Name":"<gups>"`), 1)
	for _, refused := range [][]byte{padded, rawLT} {
		var r *system.Result
		if bytes.Equal(refused, good) || json.Unmarshal(refused, &r) != nil || r == nil || validResult(refused) {
			f.Fatalf("seed %.40q must decode as a Result and still be refused", refused)
		}
	}
	for _, seed := range [][]byte{
		good, good[:len(good)/2], append(append([]byte{}, good...), '}'), append(append([]byte{}, good...), good...),
		[]byte("null"), []byte("{}"), []byte(`{"Cycles":1}`), []byte(`{"Cycles":-1}`), []byte(`{"Bogus":1}`),
		[]byte("[]"), []byte(" "), nil, []byte("\xff\xfe"), padded, rawLT,
	} {
		f.Add(seed)
	}
	hash := strings.Repeat("ab", 32)
	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, hash+".json"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		errs := metrics.NewRegistry().AtomicCounter("store.errors")
		results, _, _, err := openResults(Options{StoreDir: dir}, errs)
		if err != nil {
			t.Fatal(err)
		}
		served, ok := results.Get(hash)
		if ok {
			var r *system.Result
			if err := json.Unmarshal(served, &r); err != nil || r == nil {
				t.Fatalf("served a blob that does not decode as a Result: %v", err)
			}
			if !bytes.Equal(served, blob) || errs.Value() != 0 {
				t.Fatalf("served blob altered or counted as an error (%d)", errs.Value())
			}
			st := storedStatus("x-1-"+hash, hash, served)
			sr := client.SweepResult{ID: st.ID, ConfigHash: hash, State: st.State, Cached: true}
			rec := httptest.NewRecorder()
			writeStatus(rec, http.StatusOK, st)
			var want bytes.Buffer
			json.NewEncoder(&want).Encode(st)
			if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Fatal("spliced status differs from the encoder's")
			}
			spliced, err := appendWithResult(nil, sr, served)
			sr.Result = served
			if wantFrame, merr := json.Marshal(sr); err != nil || merr != nil || !bytes.Equal(spliced, wantFrame) {
				t.Fatalf("spliced sweep result differs from json.Marshal's (%v, %v)", err, merr)
			}
			return
		}
		if errs.Value() != 1 {
			t.Fatalf("refused blob counted %d times, want 1", errs.Value())
		}
		if err := results.Put(hash, good); err != nil {
			t.Fatal(err)
		}
		reopened, _, _, err := openResults(Options{StoreDir: dir}, errs)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := reopened.Get(hash); !ok || !bytes.Equal(got, good) {
			t.Fatal("a real result did not replace the refused blob")
		}
	})
}
