// Command nocstar-serve runs the simulator as a long-lived HTTP
// service: clients POST JSON configs to /v1/runs (or whole design-space
// sweeps to /v1/sweeps), poll run status, stream progress and results
// over SSE, and share a content-addressed result cache across requests
// — and, with -store-dir, across restarts and replicas. Any number of
// replicas pointed at one -store-dir on a shared volume run each config
// once between them: a replica claims a cold config with a lease file
// in the store before running it, and the others wait for its result,
// taking the config over only if the lease is given up or goes stale.
//
// Usage:
//
//	nocstar-serve -addr :8080 -workers 8 -cache 256
//	nocstar-serve -addr :8080 -store-dir /var/lib/nocstar/results
//	nocstar-serve -addr :8081 -store-dir /mnt/shared/nocstar   # one of N replicas
//	nocstar-serve -selftest  # end-to-end smoke, two replicas, loopback listeners
//
// Endpoints:
//
//	POST   /v1/runs             submit a config (optionally ?timeout=30s)
//	POST   /v1/sweeps           submit a config array; results stream back as SSE
//	GET    /v1/runs             list accepted runs
//	GET    /v1/runs/{id}        run status; includes the result when done
//	DELETE /v1/runs/{id}        cancel a queued or running job
//	GET    /v1/runs/{id}/events run state transitions as SSE
//	GET    /v1/workloads        the built-in workload suite
//	GET    /v1/experiments      the paper experiment registry
//	GET    /healthz             liveness and pool occupancy (503 while draining)
//	GET    /metrics             Prometheus text exposition
//
// The typed Go client for all of the above lives in the public
// `nocstar/client` package; the selftest is written against it.
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
	"sync"
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
		storeDir     = flag.String("store-dir", "", "persistent content-addressed result store directory (survives restarts; replicas sharing it run each config once)")
		storeEntries = flag.Int("store-max-entries", 0, "persistent store entry bound (0 = 4096)")
		storeBytes   = flag.Int64("store-max-bytes", 0, "persistent store payload-byte bound (0 = unbounded)")
		history      = flag.Int("job-history", 0, "terminal jobs retained in the run registry (0 = 512)")
		maxRun       = flag.Duration("max-run", 0, "wall-clock cap on every run; 0 means uncapped")
		drain        = flag.Duration("drain", time.Minute, "graceful-shutdown drain budget for in-flight runs")
		selftest     = flag.Bool("selftest", false, "run an end-to-end smoke, two replicas included, on loopback listeners and exit")
	)
	flag.Parse()

	opts := server.Options{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cache,
		StoreDir:        *storeDir,
		StoreMaxEntries: *storeEntries,
		StoreMaxBytes:   *storeBytes,
		JobHistory:      *history,
		MaxRunDuration:  *maxRun,
	}

	if *selftest {
		if err := runSelftest(opts); err != nil {
			fmt.Fprintln(os.Stderr, "selftest FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("selftest PASSED")
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

// testNode is one booted loopback server instance used by the selftest.
type testNode struct {
	srv  *server.Server
	http *http.Server
	c    *client.Client
}

// boot starts a server over a fresh loopback listener.
func boot(opts server.Options) (*testNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(opts)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &testNode{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		c:    client.New("http://" + ln.Addr().String()),
	}
	go n.http.Serve(ln)
	return n, nil
}

func (n *testNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
	n.http.Shutdown(ctx)
}

// kill hard-kills the node: the listener and its connections close
// immediately and in-flight runs are canceled, releasing their leases.
// This is the selftest's stand-in for a crashed replica.
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

// replicaConfig is the fresh point two replicas are both asked to run.
const replicaConfig = `{
	"schema": 1,
	"org": "nocstar",
	"cores": 8,
	"apps": [{"workload": "gups", "threads": 8}],
	"instr_per_thread": 20000,
	"seed": 3
}`

// takeoverConfig runs long enough to kill the replica running it
// mid-run.
const takeoverConfig = `{
	"schema": 1,
	"org": "nocstar",
	"cores": 8,
	"apps": [{"workload": "gups", "threads": 8}],
	"instr_per_thread": 1000000,
	"seed": 4
}`

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

// waitMetric polls a node's /metrics until the named sample reaches at
// least want.
func waitMetric(ctx context.Context, n *testNode, name string, want float64) error {
	for {
		v, err := n.c.Metric(ctx, name)
		if err != nil {
			return err
		}
		if v >= want {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s stayed at %v, want %v: %w", name, v, want, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// runSelftest exercises the service end to end through the public
// typed client over real loopback listeners: submit, wait to
// completion, verify the HTTP result is byte-identical to a direct
// in-process Run, resubmit and verify a cache hit, stream a two-config
// sweep over SSE, boot a second server over the same store directory
// and verify the result survived the "restart" without re-execution,
// then run two replicas over one store: a config sent to both executes
// once, and when the replica running a config is killed mid-run the
// other takes it over. Backs `make serve-smoke`.
func runSelftest(opts server.Options) error {
	if opts.StoreDir == "" {
		dir, err := os.MkdirTemp("", "nocstar-selftest-store-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts.StoreDir = dir
	}
	n, err := boot(opts)
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
	n2, err := boot(opts)
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
	fmt.Println("selftest: health, workloads, experiments, runs all answer via the typed client")
	return replicaSelftest(ctx, opts)
}

// replicaSelftest boots two replicas over one store directory. A fresh
// config sent to both at once executes once between them and both serve
// it byte-identically; then the replica holding a running config's
// lease is killed, and the other, which was waiting on that lease,
// takes the config over and finishes it.
func replicaSelftest(ctx context.Context, opts server.Options) error {
	r1, err := boot(opts)
	if err != nil {
		return err
	}
	defer r1.stop()
	r2, err := boot(opts)
	if err != nil {
		return err
	}
	defer r2.stop()

	want, err := directResult(replicaConfig)
	if err != nil {
		return err
	}
	finals := make([]client.RunStatus, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, r := range []*testNode{r1, r2} {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			finals[i], errs[i] = runJSON(ctx, c, replicaConfig)
		}(i, r.c)
	}
	wg.Wait()
	executed := 0.0
	for i, r := range []*testNode{r1, r2} {
		if errs[i] != nil {
			return fmt.Errorf("replica %d: %w", i+1, errs[i])
		}
		if finals[i].State != client.StateDone || !bytes.Equal(finals[i].Result, want) {
			return fmt.Errorf("replica %d: state %s, %d bytes", i+1, finals[i].State, len(finals[i].Result))
		}
		v, err := r.c.Metric(ctx, "nocstar_server_runs_executed")
		if err != nil {
			return err
		}
		executed += v
	}
	if executed != 1 {
		return fmt.Errorf("two replicas executed %v runs of one config, want 1", executed)
	}
	fmt.Println("selftest: a config sent to two replicas over one store executed once, byte-identical on both")

	wantSlow, err := directResult(takeoverConfig)
	if err != nil {
		return err
	}
	// The first phase may already have counted an execution on r1 and a
	// lease wait on r2, so each wait is for one more than now.
	executed1, err := r1.c.Metric(ctx, "nocstar_server_runs_executed")
	if err != nil {
		return err
	}
	waits2, err := r2.c.Metric(ctx, "nocstar_server_lease_waits")
	if err != nil {
		return err
	}
	if _, err := r1.c.SubmitRunJSON(ctx, []byte(takeoverConfig)); err != nil {
		return err
	}
	if err := waitMetric(ctx, r1, "nocstar_server_runs_executed", executed1+1); err != nil {
		return err
	}
	follower, err := r2.c.SubmitRunJSON(ctx, []byte(takeoverConfig))
	if err != nil {
		return err
	}
	if err := waitMetric(ctx, r2, "nocstar_server_lease_waits", waits2+1); err != nil {
		return err
	}
	r1.kill()
	st, err := r2.c.Wait(ctx, follower.ID)
	if err != nil {
		return fmt.Errorf("after killing the lease holder: %w", err)
	}
	if st.State != client.StateDone || !bytes.Equal(st.Result, wantSlow) {
		return fmt.Errorf("after killing the lease holder: state %s, %d bytes", st.State, len(st.Result))
	}
	if v, err := r2.c.Metric(ctx, "nocstar_server_lease_takeovers"); err != nil || v != 1 {
		return fmt.Errorf("survivor counted %v takeovers (err %v), want 1", v, err)
	}
	fmt.Println("selftest: lease holder killed mid-run — the other replica took the config over, byte-identical")
	return nil
}
