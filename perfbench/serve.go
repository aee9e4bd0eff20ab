package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"nocstar/client"
	"nocstar/internal/server"
	"nocstar/internal/store"
	"nocstar/internal/system"
)

// serveNode is one in-process server on a loopback listener with a client
// that opens at most two connections, one per caller.
type serveNode struct {
	srv   *server.Server
	hs    *http.Server
	tp    *http.Transport
	c     *client.Client
	serve chan error
}

// bootServer starts a two-worker server over the persistent store in dir.
func bootServer(dir string) (*serveNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{Workers: 2, StoreDir: dir})
	if err != nil {
		ln.Close()
		return nil, err
	}
	tp := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	n := &serveNode{
		srv:   srv,
		hs:    &http.Server{Handler: srv.Handler()},
		tp:    tp,
		c:     client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: tp})),
		serve: make(chan error, 1),
	}
	go func() { n.serve <- n.hs.Serve(ln) }()
	return n, nil
}

// waitHealthy polls /healthz until the node answers ok.
func (n *serveNode) waitHealthy(ctx context.Context) error {
	for {
		_, err := n.c.Health(ctx)
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server never became healthy: %w", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the server, closes the listener and waits for Serve to
// return.
func (n *serveNode) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if herr := n.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-n.serve; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	n.tp.CloseIdleConnections()
	return err
}

// Hits and cold runs alternate in rounds, one round per second of
// window, so both sample the whole run: loopback round trips speed up and
// slow down by half from one fraction of a second to the next. On the
// reference host the sweep and the rounds take about the window.
const (
	hitsPerRound = 2000
	coldPerRound = 10
)

// serveProcs is the Go processors the serve tier runs on. With two,
// every loopback round trip wakes the other vCPU, whose cost swings with
// the host's load: on the reference host the spread of the hit median
// across runs fell from 0.17 to 0.03, and of a restart from 0.26 to 0.13,
// on one.
const serveProcs = 1

// runServe drives the serve tier only through the public client: a cold
// sweep into the store, a restart over it, then rounds of cache hits
// round-robin over the swept configs and cold runs of fresh configs, each
// from two callers in closed loops.
func runServe(e *env) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveProcs))
	chk, err := newChecker("serve", e.seed, e.sz)
	if err != nil {
		return nil, err
	}
	sweep := serveSweepConfigs(e.seed, e.sz)
	cold := serveColdConfigs(e.seed, e.sz)
	dir, err := os.MkdirTemp(e.work, "serve-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	_, end := e.tr.begin("server.boot", 0, 0, 0)
	a, err := bootServer(dir)
	end()
	if err != nil {
		return nil, err
	}
	start := time.Now()

	// Phase 1: sweep every config cold into the store.
	phase1 := make([][]byte, len(sweep))
	var refs1 uint64
	_, end = e.tr.begin("client.sweep", 0, 0, 0)
	t0 := time.Now()
	_, err = a.c.Sweep(ctx, sweep, func(sr client.SweepResult) error {
		if sr.Index < 0 || sr.Index >= len(sweep) {
			return fmt.Errorf("sweep leg index %d out of range", sr.Index)
		}
		res, ok := decodeDone(chk, "sweep", sr.Index, sr.State, sr.Error, sr.Result)
		if ok && chk.sim(sr.Index, sweep[sr.Index], res, nil) {
			refs1 += res.MemRefs
			phase1[sr.Index] = sr.Result
		}
		return nil
	})
	sweepDur := time.Since(t0)
	end()
	if err != nil {
		chk.fail("sweep: %v", err)
	}
	countersA, err := a.c.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}

	// Phase 2: restart over the populated store.
	_, end = e.tr.begin("server.restart", 0, 0, 0)
	b, restart, err := restartServer(a, dir)
	end()
	if err != nil {
		return nil, err
	}

	hit := func(i, lane int) {
		idx := i % len(sweep)
		_, end := e.tr.begin("client.run_hit", 0, uint64(i+1), lane)
		st, err := b.c.Run(ctx, sweep[idx])
		end()
		switch {
		case err != nil:
			chk.fail("hit %d: %v", idx, err)
		case st.State != client.StateDone || !st.Cached:
			chk.fail("hit %d: state %s, cached %v", idx, st.State, st.Cached)
		case phase1[idx] == nil || !bytes.Equal(st.Result, phase1[idx]):
			chk.fail("hit %d: bytes differ from the swept result", idx)
		default:
			chk.pass()
		}
	}
	coldBytes := make([][]byte, len(cold))
	coldRefs := make([]uint64, len(cold))
	coldRun := func(i, lane int) {
		_, end := e.tr.begin("client.run_cold", 0, uint64(len(sweep)+i+1), lane)
		st, err := b.c.Run(ctx, cold[i])
		end()
		if err != nil {
			chk.fail("cold %d: %v", i, err)
			return
		}
		res, ok := decodeDone(chk, "cold", i, st.State, st.Error, st.Result)
		if !ok {
			return
		}
		if st.Cached {
			chk.fail("cold %d: a fresh config was served from the store", i)
			return
		}
		if chk.sim(len(sweep)+i, cold[i], res, nil) {
			coldBytes[i], coldRefs[i] = st.Result, res.MemRefs
		}
	}
	var hitLat, coldLat []float64
	var coldWindow time.Duration
	for r := 0; r < perWindow(1, e.window); r++ {
		lat, _ := closedLoop(2, hitsPerRound, func(i, lane int) { hit(r*hitsPerRound+i, lane) })
		hitLat = append(hitLat, lat...)
		done := len(coldLat)
		lat, w := closedLoop(2, min(coldPerRound, len(cold)-done), func(i, lane int) { coldRun(done+i, lane) })
		coldLat = append(coldLat, lat...)
		coldWindow += w
	}
	countersB, err := b.c.Metrics(ctx)
	if err != nil {
		b.stop()
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	_, end = e.tr.begin("server.shutdown", 0, 0, 0)
	err = b.stop()
	end()
	if err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}
	window := time.Since(start)

	// Served bytes must equal an in-process run of the same config: four
	// swept and four cold configs, spread over what ran.
	for k := 0; k < 4; k++ {
		if i := k * len(sweep) / 4; phase1[i] != nil {
			verifyInProcess(chk, "sweep", i, sweep[i], phase1[i])
		}
		if j := k * len(coldLat) / 4; coldBytes[j] != nil {
			verifyInProcess(chk, "cold", j, cold[j], coldBytes[j])
		}
	}
	if e.store != "" {
		if err := writeStore(e.store, sweep, phase1); err != nil {
			return nil, err
		}
	}

	var refs4 uint64
	for _, r := range coldRefs {
		refs4 += r
	}
	counter := func(name string) float64 { return countersA[name] + countersB[name] }
	m := map[string]float64{
		"sim_mrefs_per_s":      float64(refs1+refs4) / 1e6 / (sweepDur + coldWindow).Seconds(),
		"latency_ms":           trimmedMean(hitLat, latencyTrim),
		"latency_p50_ms":       quantile(hitLat, 0.50),
		"latency_p90_ms":       quantile(hitLat, 0.90),
		"latency_samples":      float64(len(hitLat)),
		"serve.hit_p99_ms":     quantile(hitLat, 0.99),
		"serve.cold_p50_ms":    quantile(coldLat, 0.50),
		"serve.cold_p90_ms":    quantile(coldLat, 0.90),
		"serve.cold_samples":   float64(len(coldLat)),
		"serve.restart_ms":     float64(restart.Nanoseconds()) / 1e6,
		"serve.sweep_s":        sweepDur.Seconds(),
		"server.cache_hits":    counter("nocstar_server_cache_hits"),
		"server.runs_executed": counter("nocstar_server_runs_executed"),
		"server.deduped":       counter("nocstar_server_runs_deduped"),
		"server.rejected":      counter("nocstar_server_runs_rejected"),
		"runner.submitted":     counter("nocstar_pool_submitted"),
		"runner.deduped":       counter("nocstar_pool_deduped"),
	}
	return &outcome{chk: chk, metrics: m, parallel: serveProcs, window: window, blobs: phase1}, nil
}

// decodeDone checks that a served run finished and decodes its result.
func decodeDone(chk *checker, what string, i int, state, msg string, raw []byte) (system.Result, bool) {
	var res system.Result
	if state != client.StateDone {
		chk.fail("%s %d: state %s: %s", what, i, state, msg)
		return res, false
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		chk.fail("%s %d: decoding result: %v", what, i, err)
		return res, false
	}
	return res, true
}

// verifyInProcess runs cfg directly and requires the served bytes to be
// byte-identical to its marshaled Result.
func verifyInProcess(chk *checker, what string, i int, cfg system.Config, served []byte) {
	res, err := system.Run(cfg)
	if err != nil {
		chk.fail("in-process %s %d: %v", what, i, err)
		return
	}
	want, err := json.Marshal(res)
	if err != nil {
		chk.fail("in-process %s %d: %v", what, i, err)
		return
	}
	if !bytes.Equal(served, want) {
		chk.fail("%s %d: served bytes differ from an in-process run", what, i)
		return
	}
	chk.pass()
}

// writeStore leaves the swept results in a directory store, the input of
// the serve set-up measurement.
func writeStore(dir string, cfgs []system.Config, blobs [][]byte) error {
	d, err := store.OpenDir(dir, 0, 0)
	if err != nil {
		return err
	}
	for i, cfg := range cfgs {
		if blobs[i] == nil {
			continue
		}
		hash, err := cfg.CanonicalHash()
		if err != nil {
			return err
		}
		if err := d.Put(hash, blobs[i]); err != nil {
			return err
		}
	}
	return nil
}

// restartServer stops n and boots a new server over the same store. It
// returns the new server and the time from booting it to its first
// healthy /healthz answer.
func restartServer(n *serveNode, dir string) (*serveNode, time.Duration, error) {
	if err := n.stop(); err != nil {
		return nil, 0, fmt.Errorf("stopping server: %w", err)
	}
	t0 := time.Now()
	next, err := bootServer(dir)
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := next.waitHealthy(ctx); err != nil {
		next.stop()
		return nil, 0, err
	}
	return next, time.Since(t0), nil
}

// setupRestarts is how many restarts one serve set-up child times: a
// single restart takes about 2 ms and jitters by a third.
const setupRestarts = 8

// serveSetupSeconds is the serve tier's set-up time: the median restart
// over the populated store in dir.
func serveSetupSeconds(dir string) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveProcs))
	n, err := bootServer(dir)
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupRestarts; i++ {
		var d time.Duration
		if n, d, err = restartServer(n, dir); err != nil {
			return 0, err
		}
		times = append(times, d.Seconds())
	}
	if err := n.stop(); err != nil {
		return 0, err
	}
	return median(times), nil
}
