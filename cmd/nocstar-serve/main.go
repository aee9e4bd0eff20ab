// Command nocstar-serve runs the simulator as a long-lived HTTP
// service: clients POST JSON configs to /v1/runs (or whole design-space
// sweeps to /v1/sweeps), poll run status, stream progress and results
// over SSE, and share a content-addressed result cache across requests
// — and, with -store-dir, across restarts. One server owns a
// -store-dir: a restarted server over it serves every stored result and
// resolves the run IDs of its predecessors. Two servers over one
// directory still return correct results, but a config sent to both may
// run once in each.
//
// Usage:
//
//	nocstar-serve -addr :8080 -workers 8 -store-max-entries 8192
//	nocstar-serve -addr :8080 -store-dir /var/lib/nocstar/results   # survives restarts
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
// `nocstar/client` package; the server's end-to-end tests
// (internal/server, run by `make serve-smoke`) are written against it.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nocstar/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers      = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "bounded submission queue depth (full queue returns 429)")
		storeDir     = flag.String("store-dir", "", "persistent content-addressed result store directory, owned by this server (survives restarts)")
		storeEntries = flag.Int("store-max-entries", 0, "result entry bound of the memory tier and of the persistent store (0 = 4096)")
		storeBytes   = flag.Int64("store-max-bytes", 0, "persistent store payload-byte bound (0 = unbounded)")
		history      = flag.Int("job-history", 0, "terminal jobs retained in the run registry (0 = 512)")
		maxRun       = flag.Duration("max-run", 0, "wall-clock cap on every run; 0 means uncapped")
		drain        = flag.Duration("drain", time.Minute, "graceful-shutdown drain budget for in-flight runs")
	)
	flag.Parse()

	srv, err := server.New(server.Options{
		Workers:         *workers,
		QueueDepth:      *queue,
		StoreDir:        *storeDir,
		StoreMaxEntries: *storeEntries,
		StoreMaxBytes:   *storeBytes,
		JobHistory:      *history,
		MaxRunDuration:  *maxRun,
	})
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
