package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"nocstar/client"
	"nocstar/internal/system"
)

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

// clusterNode is one booted cluster member with its own listener, so
// it can be killed independently.
type clusterNode struct {
	srv  *Server
	base string
	hs   *http.Server
	c    *client.Client
}

// hbOpts are the fast heartbeat timings cluster tests run with.
func hbOpts(o Options) Options {
	o.HeartbeatInterval = 25 * time.Millisecond
	o.SuspectAfter = 150 * time.Millisecond
	o.DeadAfter = 600 * time.Millisecond
	return o
}

// bootCluster boots n servers on pre-bound loopback listeners so peer
// URLs exist before the servers that use them, then waits for the
// membership views to converge to n live members everywhere.
func bootCluster(t *testing.T, n int, mkOpts func(i int, self string, peers []string) Options) []clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]clusterNode, n)
	for i := range nodes {
		srv, err := New(mkOpts(i, peers[i], peers))
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		nodes[i] = clusterNode{srv: srv, base: peers[i], hs: hs, c: client.New(peers[i])}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			hs.Shutdown(ctx)
			srv.Shutdown(ctx)
		})
	}
	waitLive(t, nodes, n)
	return nodes
}

// waitLive blocks until every given node's view has exactly `want`
// live members.
func waitLive(t *testing.T, nodes []clusterNode, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		ok := true
		for _, n := range nodes {
			if len(n.srv.clusterView().Live()) != want {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			counts := make([]int, len(nodes))
			for i, n := range nodes {
				counts[i] = len(n.srv.clusterView().Live())
			}
			t.Fatalf("views never converged to %d live: %v", want, counts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// killNode hard-kills a node: its listener closes (peers get connection
// errors, not graceful drains) and its in-flight runs are canceled.
func killNode(t *testing.T, n clusterNode) {
	t.Helper()
	n.hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n.srv.Shutdown(ctx)
}

// configOwnedBy seed-searches for a config whose canonical hash the
// current view assigns to nodeID.
func configOwnedBy(t *testing.T, srv *Server, nodeID string, seedStart, instr int64) string {
	t.Helper()
	for seed := seedStart; seed < seedStart+500; seed++ {
		cand := cfgWith(seed, instr)
		if owner, ok := srv.clu.Owner(hashOf(t, cand)); ok && owner.ID == nodeID {
			return cand
		}
	}
	t.Fatalf("no config owned by %s in 500 seeds", nodeID)
	return ""
}

// TestTwoNodeProxy is the consistent-hash sharding contract: a config
// whose hash is owned by node B, submitted to node A, executes exactly
// once cluster-wide (on B), is served byte-identically through A, and
// afterwards lives in A's own store so A serves it without B.
func TestTwoNodeProxy(t *testing.T) {
	nodes := bootCluster(t, 2, func(i int, self string, peers []string) Options {
		return hbOpts(Options{Workers: 2, StoreDir: t.TempDir(), Node: self, Peers: peers})
	})
	a, b := nodes[0], nodes[1]
	ctx := ctxT(t)

	body := configOwnedBy(t, a.srv, b.srv.nodeID, 50, 5000)
	want := directBytes(t, body)

	st, err := a.c.SubmitRunJSON(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	final, err := a.c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("proxied run ended %s: %s", final.State, final.Error)
	}
	if !bytes.Equal(final.Result, want) {
		t.Fatalf("proxied result differs from direct run (%d vs %d bytes)", len(final.Result), len(want))
	}

	// Exactly one execution cluster-wide, and it happened on the owner.
	if got := b.srv.met.executed.Value(); got != 1 {
		t.Fatalf("owner executed %d runs, want 1", got)
	}
	if got := a.srv.met.executed.Value(); got != 0 {
		t.Fatalf("non-owner executed %d runs, want 0", got)
	}
	if got := a.srv.met.proxied.Value(); got != 1 {
		t.Fatalf("non-owner proxied %d runs, want 1", got)
	}

	// The proxied result entered A's own store: resubmission hits the
	// cache without touching B.
	hit, err := a.c.SubmitRunJSON(ctx, []byte(body))
	if err != nil || !hit.Cached {
		t.Fatalf("resubmit via non-owner: %v cached=%v", err, hit.Cached)
	}
	if !bytes.Equal(hit.Result, want) {
		t.Fatal("non-owner cached result differs")
	}
	if got := b.srv.met.executed.Value(); got != 1 {
		t.Fatalf("resubmission re-executed on owner (%d)", got)
	}

	// The ownership preview agrees with where the run went.
	info, err := a.c.Cluster(ctx, hashOf(t, body))
	if err != nil {
		t.Fatal(err)
	}
	if info.Ownership == nil || info.Ownership.Owner.ID != b.srv.nodeID {
		t.Fatalf("ownership preview disagrees: %+v", info.Ownership)
	}
	if len(info.View.Live()) != 2 {
		t.Fatalf("view has %d live members, want 2", len(info.View.Live()))
	}
}

// TestProxyFallbackLocal pins the availability contract: a hash owned
// by an unreachable peer executes locally instead of failing, with the
// fallback counted.
func TestProxyFallbackLocal(t *testing.T) {
	// A seed list naming a dead owner: nothing listens on the peer port.
	dead := "http://127.0.0.1:1"
	srv, err := New(hbOpts(Options{Workers: 2, Node: "http://127.0.0.1:2", Peers: []string{dead}}))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	c := client.New("http://" + ln.Addr().String())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Shutdown(ctx)
	}()
	ctx := ctxT(t)

	body := configOwnedBy(t, srv, srv.clu.SelfID(), 60, 5000)
	// We need the opposite: a config owned by the dead seed.
	deadID := ""
	for _, n := range srv.clusterView().Nodes {
		if n.ID != srv.nodeID {
			deadID = n.ID
		}
	}
	body = configOwnedBy(t, srv, deadID, 60, 5000)
	want := directBytes(t, body)

	st, err := c.SubmitRunJSON(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("fallback run ended %s: %s", final.State, final.Error)
	}
	if !bytes.Equal(final.Result, want) {
		t.Fatal("fallback result differs from direct run")
	}
	if got := srv.met.proxyFallbck.Value(); got != 1 {
		t.Fatalf("fallback counter %d, want 1", got)
	}
	if got := srv.met.executed.Value(); got != 1 {
		t.Fatalf("executed %d, want 1", got)
	}
}

// TestForwardReresolve is the regression test for the one-hop bound
// dropping requests when ownership moves mid-flight: a forwarded
// submission arriving at a node whose membership view is NEWER than
// the sender's, and whose view assigns the hash to a third node, must
// be re-resolved and forwarded once more — not executed by a node that
// no longer owns it.
func TestForwardReresolve(t *testing.T) {
	nodes := bootCluster(t, 3, func(i int, self string, peers []string) Options {
		return hbOpts(Options{Workers: 2, Node: self, Peers: peers})
	})
	a, b, c := nodes[0], nodes[1], nodes[2]
	ctx := ctxT(t)

	// A config owned by C in everyone's (identical) view.
	body := configOwnedBy(t, b.srv, c.srv.nodeID, 100, 5000)
	want := directBytes(t, body)

	// Simulate a stale sender: a forwarded request claiming view version
	// 0 from a node that routed before C joined. B's view version is
	// strictly newer, B is not the owner, the claimed sender is not the
	// owner — so B must re-resolve and forward to C.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/v1/runs",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, fmt.Sprintf("%s 0 1", a.srv.nodeID))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st runStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded submit: status %d", resp.StatusCode)
	}

	final, err := b.c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("re-resolved run ended %s: %s", final.State, final.Error)
	}
	if !bytes.Equal(final.Result, want) {
		t.Fatal("re-resolved result differs from direct run")
	}
	if got := b.srv.met.reresolved.Value(); got != 1 {
		t.Fatalf("re-resolve counter %d, want 1", got)
	}
	if got := b.srv.met.executed.Value(); got != 0 {
		t.Fatalf("stale receiver executed %d runs locally, want 0 (must follow the ownership move)", got)
	}
	if got := c.srv.met.executed.Value(); got != 1 {
		t.Fatalf("true owner executed %d runs, want 1", got)
	}
}

// TestKillOwnerMidSweep is the headline resilience contract: a sweep
// submitted before the owner dies completes with results byte-identical
// to a direct Run, one terminal frame per leg (none lost, none
// duplicated), every re-homed execution counted, and every job ID
// resolvable on all surviving nodes.
func TestKillOwnerMidSweep(t *testing.T) {
	nodes := bootCluster(t, 3, func(i int, self string, peers []string) Options {
		o := hbOpts(Options{Workers: 2, Node: self, Peers: peers})
		if i == 1 {
			o.Workers = 1 // serialize the doomed owner so legs are in flight when it dies
		}
		return o
	})
	a, b, c := nodes[0], nodes[1], nodes[2]
	ctx := ctxT(t)

	// A sweep with three B-owned legs (slow enough to still be running
	// when B dies) plus three legs owned elsewhere. Node IDs carry the
	// listeners' ephemeral ports, so ownership differs from run to run:
	// scan seeds until both quotas are filled rather than taking the
	// first six.
	const slowInstr = 120000
	var bodies []string
	bOwned, others := 0, 0
	for seed := int64(200); (bOwned < 3 || others < 3) && seed < 900; seed++ {
		cand := cfgWith(seed, slowInstr)
		owner, ok := a.srv.clu.Owner(hashOf(t, cand))
		if !ok {
			t.Fatal("no owner")
		}
		if owner.ID == b.srv.nodeID {
			if bOwned >= 3 {
				continue
			}
			bOwned++
		} else {
			if others >= 3 {
				continue
			}
			others++
		}
		bodies = append(bodies, cand)
	}
	if bOwned < 3 || others < 3 {
		t.Fatalf("sweep has %d B-owned and %d other legs, want 3 of each", bOwned, others)
	}
	wants := make([][]byte, len(bodies))
	for i, body := range bodies {
		wants[i] = directBytes(t, body)
	}
	payload := "[" + strings.Join(bodies, ",") + "]"

	// Kill B as soon as it starts executing its first leg.
	go func() {
		deadline := time.Now().Add(time.Minute)
		for b.srv.met.executed.Value() == 0 {
			if time.Now().After(deadline) {
				return
			}
			time.Sleep(time.Millisecond)
		}
		killNode(t, b)
	}()

	frames := map[int]client.SweepResult{}
	summary, err := a.c.SweepJSON(ctx, []byte(payload), func(sr client.SweepResult) error {
		if _, dup := frames[sr.Index]; dup {
			t.Errorf("index %d streamed twice", sr.Index)
		}
		frames[sr.Index] = sr
		return nil
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}

	// No lost or duplicated legs, everything done, bytes identical.
	if summary.Total != len(bodies) || summary.Done != len(bodies) ||
		summary.Failed != 0 || summary.Canceled != 0 || summary.Unsubmitted != 0 {
		t.Fatalf("summary %+v, want all %d done", summary, len(bodies))
	}
	if len(frames) != len(bodies) {
		t.Fatalf("%d frames, want %d", len(frames), len(bodies))
	}
	for i := range bodies {
		fr, ok := frames[i]
		if !ok {
			t.Fatalf("leg %d lost", i)
		}
		if !bytes.Equal(fr.Result, wants[i]) {
			t.Fatalf("leg %d: result differs from direct run (%d vs %d bytes)",
				i, len(fr.Result), len(wants[i]))
		}
	}

	// The owner death was noticed and the re-homing counted: every
	// execution beyond one-per-config is accounted for by a handoff or
	// fallback counter — never a silent duplicate.
	handoffs := a.srv.met.proxyHandoff.Value() + a.srv.met.proxyFallbck.Value()
	if handoffs == 0 {
		t.Fatal("owner died mid-sweep but no handoff or fallback was counted")
	}
	totalExec := a.srv.met.executed.Value() + b.srv.met.executed.Value() + c.srv.met.executed.Value()
	if extra := int64(totalExec) - int64(len(bodies)); extra < 0 || uint64(extra) > handoffs {
		t.Fatalf("%d executions for %d configs with %d counted handoffs: silent duplication",
			totalExec, len(bodies), handoffs)
	}

	// Every leg's job ID resolves on both survivors, byte-identically.
	for i := range bodies {
		id := frames[i].ID
		for _, n := range []clusterNode{a, c} {
			st, err := n.c.GetRun(ctx, id)
			if err != nil {
				t.Fatalf("leg %d: resolving %s on %s: %v", i, id, n.base, err)
			}
			if st.State != client.StateDone || !bytes.Equal(st.Result, wants[i]) {
				t.Fatalf("leg %d: %s resolved on %s as %s with %d bytes", i, id, n.base, st.State, len(st.Result))
			}
		}
	}
}

// TestReplicationSurvivesOwnerDeath: a result executed on its owner is
// pushed write-behind to the HRW successors, so after the owner dies a
// successor serves the run — same job ID, same bytes — having executed
// nothing itself.
func TestReplicationSurvivesOwnerDeath(t *testing.T) {
	nodes := bootCluster(t, 3, func(i int, self string, peers []string) Options {
		return hbOpts(Options{Workers: 2, Node: self, Peers: peers})
	})
	a, b, c := nodes[0], nodes[1], nodes[2]
	ctx := ctxT(t)

	body := configOwnedBy(t, a.srv, b.srv.nodeID, 300, 5000)
	hash := hashOf(t, body)
	want := directBytes(t, body)

	st, err := a.c.SubmitRunJSON(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	final, err := a.c.Wait(ctx, st.ID)
	if err != nil || final.State != client.StateDone {
		t.Fatalf("run: %v %+v", err, final)
	}

	// Wait for the write-behind replica to land on C (A already has the
	// bytes copy-on-proxy; C only ever gets them via replication).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := c.srv.results.Get(hash); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never landed on the successor")
		}
		time.Sleep(5 * time.Millisecond)
	}

	killNode(t, b)

	// The successor serves the run's ID from its replicated store:
	// byte-identical, zero executions of its own.
	got, err := c.c.GetRun(ctx, st.ID)
	if err != nil {
		t.Fatalf("resolving %s on successor: %v", st.ID, err)
	}
	if got.State != client.StateDone || !bytes.Equal(got.Result, want) {
		t.Fatalf("successor served %s with %d bytes", got.State, len(got.Result))
	}
	if exec := c.srv.met.executed.Value(); exec != 0 {
		t.Fatalf("successor executed %d runs, want 0 (replica must serve)", exec)
	}
	// A resubmission of the config anywhere is a store hit, not a
	// re-execution.
	hit, err := c.c.SubmitRunJSON(ctx, []byte(body))
	if err != nil || !hit.Cached {
		t.Fatalf("post-death resubmit: %v cached=%v", err, hit.Cached)
	}
	if c.srv.met.executed.Value() != 0 {
		t.Fatal("post-death resubmit re-executed")
	}
}

// TestMembershipChurnResolvable: a join/leave cycle keeps every job ID
// resolvable from every live node — the late joiner learns the minting
// nodes transitively and proxies or serves accordingly.
func TestMembershipChurnResolvable(t *testing.T) {
	nodes := bootCluster(t, 2, func(i int, self string, peers []string) Options {
		return hbOpts(Options{Workers: 2, Node: self, Peers: peers})
	})
	a, b := nodes[0], nodes[1]
	ctx := ctxT(t)

	// One run minted on each node.
	bodyA, bodyB := cfgWith(400, 5000), cfgWith(401, 5000)
	stA, err := a.c.SubmitRunJSON(ctx, []byte(bodyA))
	if err != nil {
		t.Fatal(err)
	}
	stB, err := b.c.SubmitRunJSON(ctx, []byte(bodyB))
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := a.c.Wait(ctx, stA.ID); err != nil || fin.State != client.StateDone {
		t.Fatalf("run A: %v %+v", err, fin)
	}
	if fin, err := b.c.Wait(ctx, stB.ID); err != nil || fin.State != client.StateDone {
		t.Fatalf("run B: %v %+v", err, fin)
	}

	// Join: a third node seeded with only A must learn B via gossip and
	// resolve both IDs.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	joiner, err := New(hbOpts(Options{Workers: 2, Node: base, Peers: []string{a.base}}))
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: joiner.Handler()}
	go hs.Serve(ln)
	jn := clusterNode{srv: joiner, base: base, hs: hs, c: client.New(base)}
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
		joiner.Shutdown(sctx)
	})
	waitLive(t, []clusterNode{a, b, jn}, 3)

	for _, id := range []string{stA.ID, stB.ID} {
		for _, n := range []clusterNode{a, b, jn} {
			st, err := n.c.GetRun(ctx, id)
			if err != nil || st.State != client.StateDone || len(st.Result) == 0 {
				t.Fatalf("after join: %s on %s: %v %+v", id, n.base, err, st)
			}
		}
	}

	// Leave: kill the joiner; the survivors demote it and every ID
	// keeps resolving.
	killNode(t, jn)
	waitLive(t, []clusterNode{a, b}, 2)
	for _, id := range []string{stA.ID, stB.ID} {
		for _, n := range []clusterNode{a, b} {
			st, err := n.c.GetRun(ctx, id)
			if err != nil || st.State != client.StateDone {
				t.Fatalf("after leave: %s on %s: %v %+v", id, n.base, err, st)
			}
		}
	}
}

// TestSweepAdmissionControl: a sweep exceeding the cluster queue budget
// is rejected up front with the typed queue-full error and Retry-After,
// before any leg is committed.
func TestSweepAdmissionControl(t *testing.T) {
	nodes := bootCluster(t, 2, func(i int, self string, peers []string) Options {
		o := hbOpts(Options{Workers: 1, Node: self, Peers: peers})
		o.ClusterQueueBudget = 2
		return o
	})
	a := nodes[0]
	ctx := ctxT(t)

	bodies := make([]string, 5)
	for i := range bodies {
		bodies[i] = cfgWith(int64(500+i), 5000)
	}
	payload := "[" + strings.Join(bodies, ",") + "]"
	_, err := a.c.SweepJSON(ctx, []byte(payload), nil)
	if !errors.Is(err, client.ErrQueueFull) {
		t.Fatalf("over-budget sweep: %v, want ErrQueueFull", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.RetryAfter <= 0 {
		t.Fatalf("over-budget sweep missing Retry-After: %v", err)
	}
	if got := a.srv.met.sweepBounced.Value(); got != 1 {
		t.Fatalf("admission-rejected counter %d, want 1", got)
	}

	// A within-budget sweep sails through.
	small := "[" + bodies[0] + "]"
	summary, err := a.c.SweepJSON(ctx, []byte(small), nil)
	if err != nil || summary.Done != 1 {
		t.Fatalf("within-budget sweep: %v %+v", err, summary)
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
