// Command nocstar-serve runs the simulator as a long-lived HTTP
// service: clients POST JSON configs to /v1/runs (or whole design-space
// sweeps to /v1/sweeps), poll run status, stream progress and results
// over SSE, and share a content-addressed result cache across requests
// — and, with -store-dir, across restarts and replicas. With -peers the
// node joins a heartbeat-gossip cluster: work shards by rendezvous
// hashing over the live view, finished results replicate to successor
// nodes, and ownership hands off when a member dies.
//
// Usage:
//
//	nocstar-serve -addr :8080 -workers 8 -cache 256
//	nocstar-serve -addr :8080 -store-dir /var/lib/nocstar/results
//	nocstar-serve -addr :8081 -node http://10.0.0.2:8081 \
//	    -peers http://10.0.0.1:8081,http://10.0.0.2:8081
//	nocstar-serve -selftest          # end-to-end smoke against a loopback listener
//	nocstar-serve -selftest-cluster  # three-node membership/handoff/replication smoke
//
// Endpoints:
//
//	POST   /v1/runs             submit a config (optionally ?timeout=30s)
//	POST   /v1/sweeps           submit a config array; results stream back as SSE
//	GET    /v1/runs             list accepted runs
//	GET    /v1/runs/{id}        run status; includes the result when done
//	DELETE /v1/runs/{id}        cancel a queued or running job
//	GET    /v1/runs/{id}/events run state transitions as SSE
//	GET    /v1/cluster          membership view (+ ?hash= ownership preview)
//	GET    /v1/workloads        the built-in workload suite
//	GET    /v1/experiments      the paper experiment registry
//	GET    /healthz             liveness and pool occupancy (503 while draining)
//	GET    /metrics             Prometheus text exposition
//
// The typed Go client for all of the above lives in the public
// `nocstar/client` package; both selftests are written against it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nocstar/client"
	"nocstar/internal/server"
	"nocstar/internal/system"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers      = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "bounded submission queue depth (full queue returns 429)")
		cache        = flag.Int("cache", 128, "in-memory result-cache entries, keyed on canonical config hash")
		storeDir     = flag.String("store-dir", "", "persistent content-addressed result store directory (survives restarts; shareable between replicas)")
		storeEntries = flag.Int("store-max-entries", 0, "persistent store entry bound (0 = 4096)")
		storeBytes   = flag.Int64("store-max-bytes", 0, "persistent store payload-byte bound (0 = unbounded)")
		peers        = flag.String("peers", "", "comma-separated seed URLs of cluster members (enables membership, sharding, replication)")
		node         = flag.String("node", "", "this node's own advertised base URL (required with -peers)")
		hbInterval   = flag.Duration("hb-interval", 0, "cluster heartbeat interval (0 = 1s)")
		suspectAfter = flag.Duration("suspect-after", 0, "silence before a peer is suspected (0 = 3x interval)")
		deadAfter    = flag.Duration("dead-after", 0, "silence before a peer is declared dead (0 = 8x interval)")
		replicas     = flag.Int("replicas", 0, "successor nodes each finished result is replicated to (0 = 2, negative disables)")
		budget       = flag.Int("cluster-queue-budget", 0, "cluster-wide queued-leg budget for sweep admission (0 = sum of live queue caps)")
		history      = flag.Int("job-history", 0, "terminal jobs retained in the run registry (0 = 512)")
		maxRun       = flag.Duration("max-run", 0, "wall-clock cap on every run; 0 means uncapped")
		drain        = flag.Duration("drain", time.Minute, "graceful-shutdown drain budget for in-flight runs")
		selftest     = flag.Bool("selftest", false, "run an end-to-end smoke against a loopback listener and exit")
		selfcluster  = flag.Bool("selftest-cluster", false, "run a three-node membership/handoff/replication smoke on loopback listeners and exit")
	)
	flag.Parse()

	opts := server.Options{
		Workers:            *workers,
		QueueDepth:         *queue,
		CacheEntries:       *cache,
		StoreDir:           *storeDir,
		StoreMaxEntries:    *storeEntries,
		StoreMaxBytes:      *storeBytes,
		JobHistory:         *history,
		MaxRunDuration:     *maxRun,
		HeartbeatInterval:  *hbInterval,
		SuspectAfter:       *suspectAfter,
		DeadAfter:          *deadAfter,
		Replicas:           *replicas,
		ClusterQueueBudget: *budget,
	}
	if *peers != "" {
		opts.Peers = strings.Split(*peers, ",")
		opts.Node = *node
	}

	if *selftest {
		if err := runSelftest(opts); err != nil {
			fmt.Fprintln(os.Stderr, "selftest FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("selftest PASSED")
		return
	}
	if *selfcluster {
		if err := runClusterSelftest(opts); err != nil {
			fmt.Fprintln(os.Stderr, "cluster selftest FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("cluster selftest PASSED")
		return
	}

	srv, err := server.New(opts)
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("nocstar-serve listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("received %v; draining in-flight runs (budget %v)", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the serve tier before closing the listener: the moment
	// Shutdown starts, /healthz answers 503 "draining" and new
	// submissions are refused, but pollers can still collect results —
	// a load balancer sees the node drain instead of drop.
	drainErr := srv.Shutdown(ctx)
	httpSrv.Shutdown(ctx)
	if drainErr != nil {
		log.Printf("drain incomplete: %v", drainErr)
		os.Exit(1)
	}
	log.Println("drained cleanly")
}

// testNode is one booted loopback server instance used by the selftests.
type testNode struct {
	srv  *server.Server
	http *http.Server
	ln   net.Listener
	base string
	c    *client.Client
}

// boot starts a server over a fresh loopback listener. When ln is nil a
// new one is bound; passing one in lets callers learn addresses before
// constructing peer lists.
func boot(opts server.Options, ln net.Listener) (*testNode, error) {
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
	}
	srv, err := server.New(opts)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &testNode{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		ln:   ln,
		base: "http://" + ln.Addr().String(),
	}
	n.c = client.New(n.base)
	go n.http.Serve(ln)
	return n, nil
}

func (n *testNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
	n.http.Shutdown(ctx)
}

// kill hard-kills the node: the listener closes immediately (peers see
// connection errors, not a graceful drain) and in-flight runs are
// canceled. This is the selftest's stand-in for a crashed member.
func (n *testNode) kill() {
	n.http.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n.srv.Shutdown(ctx)
}

// selftestConfig is a deliberately small run so the smoke finishes in
// about a second.
const selftestConfig = `{
	"schema": 1,
	"org": "nocstar",
	"cores": 8,
	"apps": [{"workload": "gups", "threads": 8}],
	"instr_per_thread": 20000,
	"seed": 1
}`

// selftestConfig2 is a second, distinct point for the sweep smoke.
const selftestConfig2 = `{
	"schema": 1,
	"org": "nocstar",
	"cores": 8,
	"apps": [{"workload": "gups", "threads": 8}],
	"instr_per_thread": 20000,
	"seed": 2
}`

// smokeConfig builds a small distinct config for the cluster smoke's
// seed searches.
func smokeConfig(seed int64) string {
	return fmt.Sprintf(`{
		"schema": 1, "org": "nocstar", "cores": 4,
		"apps": [{"workload": "gups", "threads": 4}],
		"instr_per_thread": 10000, "seed": %d
	}`, seed)
}

// directResult runs cfgJSON in process and returns its marshaled Result
// — the byte-identity reference for everything served over HTTP.
func directResult(cfgJSON string) ([]byte, error) {
	cfg, err := system.UnmarshalConfig([]byte(cfgJSON))
	if err != nil {
		return nil, fmt.Errorf("decoding config: %w", err)
	}
	res, err := system.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("direct run: %w", err)
	}
	return json.Marshal(res)
}

// hashFor computes the canonical config hash client-side, for ownership
// previews against GET /v1/cluster?hash=.
func hashFor(cfgJSON string) (string, error) {
	cfg, err := system.UnmarshalConfig([]byte(cfgJSON))
	if err != nil {
		return "", err
	}
	return cfg.CanonicalHash()
}

// runJSON submits a raw config through the typed client and waits for
// the terminal state.
func runJSON(ctx context.Context, c *client.Client, cfgJSON string) (client.RunStatus, error) {
	st, err := c.SubmitRunJSON(ctx, []byte(cfgJSON))
	if err != nil {
		return client.RunStatus{}, err
	}
	if st.Terminal() {
		return st, nil
	}
	return c.Wait(ctx, st.ID)
}

// runSelftest exercises the service end to end through the public
// typed client over a real loopback listener: submit, wait to
// completion, verify the HTTP result is byte-identical to a direct
// in-process Run, resubmit and verify a cache hit, stream a two-config
// sweep over SSE, then boot a second server over the same store
// directory and verify the result survived the "restart" without
// re-execution. Backs `make serve-smoke`.
func runSelftest(opts server.Options) error {
	if opts.StoreDir == "" {
		dir, err := os.MkdirTemp("", "nocstar-selftest-store-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts.StoreDir = dir
	}
	n, err := boot(opts, nil)
	if err != nil {
		return err
	}
	defer n.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	want, err := directResult(selftestConfig)
	if err != nil {
		return err
	}

	// Submit and wait to completion.
	st, err := runJSON(ctx, n.c, selftestConfig)
	if err != nil {
		return err
	}
	if st.State != client.StateDone {
		return fmt.Errorf("run ended %s: %s", st.State, st.Error)
	}
	if !bytes.Equal(st.Result, want) {
		return fmt.Errorf("HTTP result differs from direct run (%d vs %d bytes)", len(st.Result), len(want))
	}
	fmt.Println("selftest: HTTP result byte-identical to direct run")

	// Resubmit: must be served from the result cache, byte-identical.
	again, err := runJSON(ctx, n.c, selftestConfig)
	if err != nil {
		return err
	}
	if !again.Cached {
		return fmt.Errorf("resubmit not served from cache (state %q)", again.State)
	}
	if !bytes.Equal(again.Result, want) {
		return fmt.Errorf("cached result differs from direct run")
	}
	fmt.Println("selftest: resubmit served from cache, byte-identical")

	// Sweep: two configs over SSE, one a store hit, one fresh.
	want2, err := directResult(selftestConfig2)
	if err != nil {
		return err
	}
	var results []client.SweepResult
	summary, err := n.c.SweepJSON(ctx, []byte("["+selftestConfig+","+selftestConfig2+"]"),
		func(sr client.SweepResult) error {
			results = append(results, sr)
			return nil
		})
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if len(results) != 2 || summary.Total != 2 || summary.Done != 2 {
		return fmt.Errorf("sweep: %d results, summary %+v", len(results), summary)
	}
	for _, r := range results {
		ref := want
		if r.Index == 1 {
			ref = want2
		}
		if r.State != client.StateDone || !bytes.Equal(r.Result, ref) {
			return fmt.Errorf("sweep result %d: state %q, %d bytes (want %d)", r.Index, r.State, len(r.Result), len(ref))
		}
	}
	fmt.Println("selftest: sweep streamed both results over SSE, byte-identical")

	// The store directory holds the blobs.
	entries, err := os.ReadDir(opts.StoreDir)
	if err != nil {
		return err
	}
	blobs := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			blobs++
		}
	}
	if blobs < 2 {
		return fmt.Errorf("store dir %s holds %d blobs, want >= 2", opts.StoreDir, blobs)
	}

	// Restart survival: a fresh server over the same store directory
	// serves the result as a cache hit without re-executing.
	n2, err := boot(opts, nil)
	if err != nil {
		return err
	}
	defer n2.stop()
	revived, err := runJSON(ctx, n2.c, selftestConfig)
	if err != nil {
		return err
	}
	if !revived.Cached || !bytes.Equal(revived.Result, want) {
		return fmt.Errorf("restart: cached=%v, bytes equal=%v", revived.Cached, bytes.Equal(revived.Result, want))
	}
	if v, err := n2.c.Metric(ctx, "nocstar_server_runs_executed"); err != nil || v != 0 {
		return fmt.Errorf("restarted server executed %v runs (err %v), want 0", v, err)
	}
	fmt.Println("selftest: result survived restart via persistent store, no re-execution")

	// The read endpoints answer through the typed client.
	if h, err := n.c.Health(ctx); err != nil || h.Status != "ok" {
		return fmt.Errorf("health: %v %+v", err, h)
	}
	if ws, err := n.c.Workloads(ctx); err != nil || len(ws) == 0 {
		return fmt.Errorf("workloads: %v (%d entries)", err, len(ws))
	}
	if exps, err := n.c.Experiments(ctx); err != nil || len(exps) == 0 {
		return fmt.Errorf("experiments: %v (%d entries)", err, len(exps))
	}
	if runs, err := n.c.ListRuns(ctx); err != nil || len(runs) == 0 {
		return fmt.Errorf("runs list: %v (%d entries)", err, len(runs))
	}
	if info, err := n.c.Cluster(ctx, ""); err != nil || len(info.View.Nodes) != 1 {
		return fmt.Errorf("cluster view: %v %+v", err, info)
	}
	fmt.Println("selftest: health, workloads, experiments, runs, cluster all answer via the typed client")
	return nil
}

// waitConverged polls every node's /v1/cluster until all views report
// `want` live members.
func waitConverged(ctx context.Context, nodes []*testNode, want int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := true
		for _, n := range nodes {
			info, err := n.c.Cluster(ctx, "")
			if err != nil || len(info.View.Live()) != want {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("membership never converged to %d live nodes", want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// ownerOf resolves a config's owner through the ownership preview on
// the given node.
func ownerOf(ctx context.Context, n *testNode, cfgJSON string) (client.ClusterNode, error) {
	h, err := hashFor(cfgJSON)
	if err != nil {
		return client.ClusterNode{}, err
	}
	info, err := n.c.Cluster(ctx, h)
	if err != nil {
		return client.ClusterNode{}, err
	}
	if info.Ownership == nil {
		return client.ClusterNode{}, fmt.Errorf("no ownership preview for %s", h)
	}
	return info.Ownership.Owner, nil
}

// runClusterSelftest boots three in-process nodes as a heartbeat-gossip
// cluster, each with its own store directory, and verifies the
// distributed contracts end to end through the public client:
// membership convergence, exactly-once sharded execution with
// byte-identical serving from every node, result replication to HRW
// successors, and — the headline — a killed owner whose results stay
// resolvable and whose hash range hands off to the survivors. Backs
// `make serve-cluster-smoke`.
func runClusterSelftest(opts server.Options) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	want, err := directResult(selftestConfig)
	if err != nil {
		return err
	}

	// Bind listeners first so the seed list exists before the servers.
	const clusterSize = 3
	lns := make([]net.Listener, clusterSize)
	peers := make([]string, clusterSize)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*testNode, clusterSize)
	for i := range nodes {
		dir, err := os.MkdirTemp("", "nocstar-cluster-store-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		o := opts
		o.StoreDir = dir
		o.Peers = peers
		o.Node = peers[i]
		o.HeartbeatInterval = 50 * time.Millisecond
		o.SuspectAfter = 300 * time.Millisecond
		o.DeadAfter = 1500 * time.Millisecond
		n, err := boot(o, lns[i])
		if err != nil {
			return err
		}
		defer n.stop()
		nodes[i] = n
	}
	if err := waitConverged(ctx, nodes, clusterSize); err != nil {
		return err
	}
	fmt.Printf("cluster selftest: %d nodes converged to one live view\n", clusterSize)

	// Sharding: submitted to two different nodes, the config executes
	// exactly once cluster-wide and serves byte-identically from both.
	for i, n := range nodes[:2] {
		st, err := runJSON(ctx, n.c, selftestConfig)
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		if st.State != client.StateDone || !bytes.Equal(st.Result, want) {
			return fmt.Errorf("node %d: state %s, %d bytes", i, st.State, len(st.Result))
		}
	}
	total := float64(0)
	for _, n := range nodes {
		v, err := n.c.Metric(ctx, "nocstar_server_runs_executed")
		if err != nil {
			return err
		}
		total += v
	}
	if total != 1 {
		return fmt.Errorf("cluster executed %v runs, want exactly 1", total)
	}
	fmt.Println("cluster selftest: one execution cluster-wide, both entry nodes byte-identical")

	// Kill-owner leg: pick a config owned by a node other than node 0,
	// run it via node 0, wait for the write-behind replicas to land,
	// then hard-kill the owner and verify the survivors still serve the
	// job ID and the hash from their replicated stores — and that a
	// fresh config from the dead node's range executes on a survivor.
	victim := -1
	var victimCfg string
	for seed := int64(100); seed < 400; seed++ {
		cand := smokeConfig(seed)
		owner, err := ownerOf(ctx, nodes[0], cand)
		if err != nil {
			return err
		}
		if owner.Addr != nodes[0].base {
			for i, n := range nodes {
				if n.base == owner.Addr {
					victim, victimCfg = i, cand
				}
			}
			break
		}
	}
	if victim < 0 {
		return fmt.Errorf("no config owned by a non-entry node in 300 seeds")
	}
	victimWant, err := directResult(victimCfg)
	if err != nil {
		return err
	}
	st, err := runJSON(ctx, nodes[0].c, victimCfg)
	if err != nil {
		return fmt.Errorf("victim-owned run: %w", err)
	}
	if st.State != client.StateDone || !bytes.Equal(st.Result, victimWant) {
		return fmt.Errorf("victim-owned run: state %s, %d bytes", st.State, len(st.Result))
	}

	// Replication is write-behind: wait until both successors report a
	// received replica.
	repDeadline := time.Now().Add(15 * time.Second)
	for {
		recv := float64(0)
		for i, n := range nodes {
			if i == victim {
				continue
			}
			v, err := n.c.Metric(ctx, "nocstar_server_replica_received")
			if err != nil {
				return err
			}
			recv += v
		}
		if recv >= 2 {
			break
		}
		if time.Now().After(repDeadline) {
			return fmt.Errorf("replicas never landed on the successors")
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Println("cluster selftest: finished result replicated to both HRW successors")

	nodes[victim].kill()
	survivors := make([]*testNode, 0, clusterSize-1)
	for i, n := range nodes {
		if i != victim {
			survivors = append(survivors, n)
		}
	}

	// The dead owner's job ID and hash stay resolvable on every
	// survivor, byte-identical, without any re-execution.
	for _, n := range survivors {
		got, err := n.c.GetRun(ctx, st.ID)
		if err != nil {
			return fmt.Errorf("post-kill: resolving %s on %s: %w", st.ID, n.base, err)
		}
		if got.State != client.StateDone || !bytes.Equal(got.Result, victimWant) {
			return fmt.Errorf("post-kill: %s served %s with %d bytes", n.base, got.State, len(got.Result))
		}
		hit, err := runJSON(ctx, n.c, victimCfg)
		if err != nil {
			return fmt.Errorf("post-kill resubmit on %s: %w", n.base, err)
		}
		if !hit.Cached || !bytes.Equal(hit.Result, victimWant) {
			return fmt.Errorf("post-kill resubmit on %s: cached=%v", n.base, hit.Cached)
		}
	}
	fmt.Println("cluster selftest: owner killed — survivors serve its job ID and hash from replicas, no re-execution")

	// Ownership handoff: a brand-new config from the dead node's hash
	// range executes on a survivor instead of failing.
	var handoffCfg string
	for seed := int64(400); seed < 900; seed++ {
		cand := smokeConfig(seed)
		owner, err := ownerOf(ctx, survivors[0], cand)
		if err != nil {
			return err
		}
		if owner.Addr == nodes[victim].base {
			handoffCfg = cand
			break
		}
	}
	if handoffCfg == "" {
		// The survivors may already have demoted the victim, in which
		// case every hash now maps to a live node — equally fine; pick
		// any fresh config.
		handoffCfg = smokeConfig(901)
	}
	handoffWant, err := directResult(handoffCfg)
	if err != nil {
		return err
	}
	hst, err := runJSON(ctx, survivors[0].c, handoffCfg)
	if err != nil {
		return fmt.Errorf("handoff run: %w", err)
	}
	if hst.State != client.StateDone || !bytes.Equal(hst.Result, handoffWant) {
		return fmt.Errorf("handoff run: state %s, %d bytes", hst.State, len(hst.Result))
	}
	fmt.Println("cluster selftest: dead owner's hash range handed off — new work executes on survivors")
	return nil
}
