// Package server exposes the simulator as a long-running HTTP service —
// the "simulation as a service" front door. A daemon accepts simulation
// jobs (POST /v1/runs with a JSON Config, or POST /v1/sweeps with an
// array of them), validates them with typed field errors, canonically
// hashes them, and executes them on a bounded pool of workers, each
// running one config at a time through runner.Execute; identical live
// submissions share one job, and a content-addressed result store
// keyed on the canonical config hash serves repeated sweeps —
// from memory, and optionally from a persistent directory, so results
// survive restarts. Results served over HTTP are byte-identical to a
// direct in-process system.Run of the same Config.
//
// One server per store directory: with Options.StoreDir, a restarted
// server over the same directory serves every result its predecessors
// stored. Job IDs embed the canonical hash, so every /v1/runs/{id}
// endpoint resolves an ID this server has no record of — minted by an
// earlier incarnation, or pruned from the job history — from the store
// alone: a stored result answers as done, anything else as not found
// (see results.go). Two processes over one directory need no
// coordination to stay correct — blobs are content-addressed and
// deterministic, and published by atomic rename — but a config sent to
// both may run once in each.
//
// Production plumbing: per-request run deadlines (?timeout=30s),
// backpressure (a bounded queue that rejects with 429 and Retry-After),
// bounded request bodies (413 beyond the limit), graceful shutdown that
// drains in-flight runs, /healthz (503 while draining, so load
// balancers stop routing), a bounded terminal-job history, and /metrics
// exporting the internal/metrics counters in Prometheus text format.
// Every non-2xx response uses the unified error envelope (see
// errors.go).
//
// The wire documents are the public nocstar/client package's types: a
// run is a client.RunStatus (a job's record is its status), a sweep
// streams client.SweepResult frames and a client.SweepSummary, and the
// read endpoints answer client.Health and client.ExperimentInfo. The
// error envelope is the only document this package declares.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nocstar/client"
	"nocstar/internal/experiments"
	"nocstar/internal/metrics"
	"nocstar/internal/runner"
	"nocstar/internal/store"
	"nocstar/internal/system"
	"nocstar/internal/workload"
)

// Options configures the daemon. The zero value selects sane defaults.
type Options struct {
	// Workers bounds concurrently executing simulations (<= 0 selects
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs accepted but not yet executing; a full
	// queue rejects submissions with 429 (<= 0 selects 64).
	QueueDepth int
	// StoreDir, when non-empty, backs the in-memory cache with a
	// persistent content-addressed store: one <hash>.json blob per
	// result, written atomically. Results survive restarts.
	StoreDir string
	// StoreMaxEntries bounds both tiers of the result store: the
	// in-memory tier, which also holds at most store.MemoryMaxBytes of
	// results, and the directory store (<= 0 selects
	// store.DefaultDirEntries). An LRU scanned cyclically by more keys
	// than it holds never hits, so a memory tier smaller than the
	// directory would send every replay of a larger sweep to disk.
	StoreMaxEntries int
	// StoreMaxBytes bounds the directory store's payload bytes
	// (<= 0 leaves it unbounded).
	StoreMaxBytes int64
	// JobHistory bounds retained terminal jobs: once more than this
	// many jobs have reached a terminal state, the oldest are evicted
	// from the registry (their IDs then resolve from the store while it
	// holds their results). <= 0 selects 512.
	JobHistory int
	// MaxRunDuration caps every run's wall-clock execution, counted
	// from submission. 0 leaves runs uncapped; requests may always set
	// a tighter deadline with ?timeout=.
	MaxRunDuration time.Duration
}

func (o Options) normalized() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.StoreMaxEntries <= 0 {
		o.StoreMaxEntries = store.DefaultDirEntries
	}
	if o.JobHistory <= 0 {
		o.JobHistory = 512
	}
	return o
}

// serverMetrics are the service-level counters exported by /metrics.
type serverMetrics struct {
	requests     *metrics.AtomicCounter
	submitted    *metrics.AtomicCounter
	invalid      *metrics.AtomicCounter
	rejected     *metrics.AtomicCounter
	deduped      *metrics.AtomicCounter
	cacheHits    *metrics.AtomicCounter
	executed     *metrics.AtomicCounter
	completed    *metrics.AtomicCounter
	failed       *metrics.AtomicCounter
	canceledRun  *metrics.AtomicCounter
	sweepConfigs *metrics.AtomicCounter
	storeErrors  *metrics.AtomicCounter
}

// Server is the resident simulation service. Create with New, mount
// Handler on an http.Server, and stop with Shutdown.
type Server struct {
	opts Options
	mux  *http.ServeMux

	// epochToken identifies this process incarnation; every job ID
	// minted here starts with it.
	epochToken string

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	order    []string        // job IDs in submission order, for listing
	terminal int             // jobs in order that have turned terminal
	inflight map[string]*job // canonical hash -> live (non-terminal) job
	results  store.Store
	// mem is the memory tier of results, the only tier the
	// canonical-body fast path reads (see heldResult).
	mem *store.Memory

	seq     atomic.Uint64
	running atomic.Int64

	reg *metrics.Registry
	met serverMetrics
}

// New builds a server and starts its worker pool. It fails when the
// persistent store directory cannot be opened.
func New(opts Options) (*Server, error) {
	opts = opts.normalized()
	reg := metrics.NewRegistry()
	s := &Server{
		opts:       opts,
		epochToken: strconv.FormatInt(time.Now().UnixNano(), 36),
		queue:      make(chan *job, opts.QueueDepth),
		jobs:       map[string]*job{},
		inflight:   map[string]*job{},
		reg:        reg,
		met: serverMetrics{
			requests:     reg.AtomicCounter("server.http.requests"),
			submitted:    reg.AtomicCounter("server.runs.submitted"),
			invalid:      reg.AtomicCounter("server.runs.invalid"),
			rejected:     reg.AtomicCounter("server.runs.rejected"),
			deduped:      reg.AtomicCounter("server.runs.deduped"),
			cacheHits:    reg.AtomicCounter("server.cache.hits"),
			executed:     reg.AtomicCounter("server.runs.executed"),
			completed:    reg.AtomicCounter("server.runs.completed"),
			failed:       reg.AtomicCounter("server.runs.failed"),
			canceledRun:  reg.AtomicCounter("server.runs.canceled"),
			sweepConfigs: reg.AtomicCounter("server.sweep.configs"),
			storeErrors:  reg.AtomicCounter("server.store.errors"),
		},
	}
	results, mem, err := openResults(opts, s.met.storeErrors)
	if err != nil {
		return nil, err
	}
	s.results, s.mem = results, mem
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.routes()
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.requests.Inc()
		s.mux.ServeHTTP(w, r)
	})
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// Shutdown gracefully stops the server: submissions are refused with
// 503, and queued and running jobs drain to completion; then the worker
// pool exits. If ctx expires first, every remaining run is canceled
// (they stop at the next context-poll stride) and Shutdown returns
// ctx's error once the pool exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.baseCancel()
	<-drained
	return err
}

// worker executes queued jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob handles one dequeued job. A job already terminal — canceled
// while it waited in the queue — is only deregistered, never executed:
// its context is dead and its canceled outcome already set, so there
// is nothing to run and no outcome to count.
func (s *Server) runJob(j *job) {
	if j.terminal() {
		s.unregisterInflight(j)
		return
	}
	j.setState(client.StateRunning, nil, "")
	state, res, msg := s.execute(j)
	s.finish(j, state, res, msg)
}

// execute runs j's config on the calling worker, publishes a done
// result to the content-addressed store, and returns its terminal
// outcome. A job whose context died in the queue completes at once as
// canceled and is not counted as an execution.
func (s *Server) execute(j *job) (string, json.RawMessage, string) {
	if j.ctx.Err() == nil {
		s.met.executed.Inc()
	}
	s.running.Add(1)
	res, err := runner.Execute(j.ctx, j.cfg)
	s.running.Add(-1)
	j.cancel() // release the deadline timer
	switch {
	case err == nil:
		b, merr := json.Marshal(res)
		if merr != nil {
			return client.StateFailed, nil, fmt.Sprintf("marshaling result: %v", merr)
		}
		if err := s.results.Put(j.st.ConfigHash, b); err != nil {
			s.met.storeErrors.Inc()
		}
		return client.StateDone, b, ""
	case errors.Is(err, system.ErrCanceled), errors.Is(err, system.ErrDeadlineExceeded):
		return client.StateCanceled, nil, err.Error()
	default:
		return client.StateFailed, nil, err.Error()
	}
}

// finish moves j to a terminal state: j leaves the singleflight
// registry, and the outcome counters advance. An executed result is
// already in the store (execute).
func (s *Server) finish(j *job, state string, result json.RawMessage, msg string) {
	s.unregisterInflight(j)
	if j.setState(state, result, msg) {
		s.countTerminal()
	}
	switch state {
	case client.StateDone:
		s.met.completed.Inc()
	case client.StateCanceled:
		s.met.canceledRun.Inc()
	default:
		s.met.failed.Inc()
	}
}

// countTerminal counts one registered job turned terminal.
func (s *Server) countTerminal() {
	s.mu.Lock()
	s.terminal++
	s.mu.Unlock()
}

// unregisterInflight removes j from the singleflight registry if it is
// still the registered entry for its hash.
func (s *Server) unregisterInflight(j *job) {
	s.mu.Lock()
	if s.inflight[j.st.ConfigHash] == j {
		delete(s.inflight, j.st.ConfigHash)
	}
	s.mu.Unlock()
}

// newJob constructs a job (not yet registered) without an execution
// context, which only a queued job needs. IDs have the form
//
//	<epoch36>-<seq>-<canonical hash>
//
// so the minting incarnation is visible and, because the full canonical
// hash rides along, a later incarnation over the same store can resolve
// the ID.
func (s *Server) newJob(hash string, cfg system.Config) *job {
	return &job{
		cfg:  cfg,
		done: make(chan struct{}),
		st: client.RunStatus{
			ID:         fmt.Sprintf("%s-%06d-%s", s.epochToken, s.seq.Add(1), hash),
			State:      client.StateQueued,
			ConfigHash: hash,
			Node:       s.epochToken,
		},
	}
}

// parseJobID returns the canonical hash a job ID embeds. It rejects
// strings that do not fit the scheme, so the hash is safe as a store
// key.
func parseJobID(id string) (hash string, ok bool) {
	epoch, rest, ok1 := strings.Cut(id, "-")
	seq, hash, ok2 := strings.Cut(rest, "-")
	if !ok1 || !ok2 || epoch == "" || seq == "" || len(hash) < 4 || len(hash) > 128 {
		return "", false
	}
	for _, c := range epoch {
		if (c < '0' || c > '9') && (c < 'a' || c > 'z') {
			return "", false
		}
	}
	for _, c := range seq {
		if c < '0' || c > '9' {
			return "", false
		}
	}
	for _, c := range hash {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", false
		}
	}
	return hash, true
}

// Sentinel outcomes of acquire, mapped to HTTP statuses by handlers.
var (
	errDraining  = errors.New("server is shutting down")
	errQueueFull = errors.New("queue full")
)

// acquisition says how acquire resolved a config to a job.
type acquisition int

const (
	// acqCached: the result store had the hash; the job is born done.
	acqCached acquisition = iota
	// acqJoined: an identical live job absorbed the submission.
	acqJoined
	// acqQueued: a fresh job entered the bounded queue.
	acqQueued
)

// acquire resolves a validated config to a job: a store hit is born
// done, an identical live job is joined, and otherwise a fresh job
// enters the bounded queue. held, when non-nil, is the config's result
// already read by heldResult: the job is born done with it, and cfg,
// then the zero Config, is never read.
// The returned errors are errDraining and errQueueFull.
func (s *Server) acquire(cfg system.Config, hash string, held []byte, timeout time.Duration) (*job, acquisition, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, 0, errDraining
	}
	s.mu.Unlock()

	// Result store: a config already simulated — by this process or a
	// previous incarnation of it — is served as a job born in the done
	// state. The store read happens outside s.mu (it may touch disk); a
	// racing identical submission is resolved by the singleflight check
	// below.
	cached, ok := held, held != nil
	if !ok {
		cached, ok = s.results.Get(hash)
	}
	if ok {
		j := s.newJob(hash, cfg)
		j.st.State = client.StateDone
		j.st.Cached = true
		j.st.Result = cached
		close(j.done)
		s.mu.Lock()
		s.terminal++
		s.registerLocked(j)
		s.mu.Unlock()
		s.met.cacheHits.Inc()
		return j, acqCached, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, 0, errDraining
	}
	// Singleflight: an identical config already queued or running is
	// joined, not re-simulated.
	if live, ok := s.inflight[hash]; ok {
		s.met.deduped.Inc()
		return live, acqJoined, nil
	}
	j := s.newJob(hash, cfg)
	if timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(s.baseCtx, timeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	}
	select {
	case s.queue <- j:
	default:
		j.cancel()
		s.met.rejected.Inc()
		return nil, 0, errQueueFull
	}
	s.registerLocked(j)
	s.inflight[hash] = j
	s.met.submitted.Inc()
	return j, acqQueued, nil
}

// parseTimeout resolves the effective run deadline from the server cap
// and the request's ?timeout= override.
func (s *Server) parseTimeout(r *http.Request) (time.Duration, error) {
	timeout := s.opts.MaxRunDuration
	if tq := r.URL.Query().Get("timeout"); tq != "" {
		d, err := time.ParseDuration(tq)
		if err != nil || d <= 0 {
			return 0, fmt.Errorf("bad timeout %q: want a positive Go duration like 30s", tq)
		}
		if timeout == 0 || d < timeout {
			timeout = d
		}
	}
	return timeout, nil
}

// maxConfigBytes bounds one submitted config: the body of POST /v1/runs
// and each element of a sweep. It also bounds the largest Result a run
// can produce (see store's maxBlobBytes).
const maxConfigBytes = 1 << 20

// readBody reads a request body of at most limit bytes. An oversized
// body is refused with 413 — from its declared length before reading
// any of it, or once a body of unknown length passes the limit — and
// never truncated. On failure the error response is written and ok is
// false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	var err error
	if r.ContentLength <= limit {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	}
	var tooBig *http.MaxBytesError
	switch {
	case r.ContentLength > limit, errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, codeBadRequest,
			fmt.Sprintf("request body exceeds the %d-byte limit", limit))
		return nil, false
	case err != nil:
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("reading body: %v", err))
		return nil, false
	}
	return body, true
}

// heldResult is the canonical-body fast path: it returns the result of
// the config whose canonical encoding is body, when the memory tier
// holds it. The client sends MarshalCanonical(cfg), and the store keys
// a result by sha256(MarshalCanonical(cfg)), so when the memory tier
// holds sha256(body), body is the canonical encoding of a config whose
// result is stored. Decoding, validating and re-hashing body would
// then yield that same hash, and the full path would serve exactly the
// blob held here — under the store's rule that a blob named H is the
// result of the config whose canonical hash is H. Only the memory tier
// is read, never the disk: its blobs were computed by this process or
// passed the directory tier's adoption check. A hand-written or
// otherwise non-canonical body misses, as does a config not held, and
// takes the full path.
func (s *Server) heldResult(body []byte) (hash string, blob []byte, ok bool) {
	sum := sha256.Sum256(body)
	hash = hex.EncodeToString(sum[:])
	blob, ok = s.mem.Get(hash)
	return hash, blob, ok
}

// decodeConfig unmarshals, validates and canonically hashes one
// submitted config. A rejected config counts in server.runs.invalid
// and is answered with a 400 invalid_config envelope — carrying the
// validator's per-field diagnoses when it produced them — whose message
// starts with prefix; ok is then false.
func (s *Server) decodeConfig(w http.ResponseWriter, raw []byte, prefix string) (cfg system.Config, hash string, ok bool) {
	cfg, err := system.UnmarshalConfig(raw)
	if err == nil {
		err = cfg.Validate()
	}
	if err == nil {
		hash, err = cfg.CanonicalHash()
	}
	if err == nil {
		return cfg, hash, true
	}
	s.met.invalid.Inc()
	msg, fields := err.Error(), []system.FieldError(nil)
	var ve *system.ValidationError
	if errors.As(err, &ve) {
		msg, fields = "invalid config", ve.Fields
	}
	writeErrorFields(w, http.StatusBadRequest, codeInvalidConfig, prefix+msg, fields)
	return system.Config{}, "", false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxConfigBytes)
	if !ok {
		return
	}
	var cfg system.Config
	hash, held, ok := s.heldResult(body)
	if !ok {
		if cfg, hash, ok = s.decodeConfig(w, body, ""); !ok {
			return
		}
	}
	timeout, err := s.parseTimeout(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}

	j, how, err := s.acquire(cfg, hash, held, timeout)
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, codeDraining, "server is shutting down")
		return
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, codeQueueFull,
			fmt.Sprintf("queue full (%d jobs waiting); retry later", s.opts.QueueDepth))
		return
	}
	switch how {
	case acqCached:
		writeStatus(w, http.StatusOK, j.status(true))
	case acqJoined:
		st := j.status(false)
		st.Deduped = true
		writeStatus(w, http.StatusAccepted, st)
	default:
		w.Header().Set("Location", "/v1/runs/"+j.st.ID)
		writeStatus(w, http.StatusAccepted, j.status(false))
	}
}

// registerLocked records a job in the ID index and prunes the terminal
// history. Caller holds s.mu.
func (s *Server) registerLocked(j *job) {
	s.jobs[j.st.ID] = j
	s.order = append(s.order, j.st.ID)
	s.pruneLocked()
}

// pruneLocked evicts the oldest terminal jobs beyond Options.JobHistory
// so sweep-replay traffic (every cache hit registers a born-done job)
// cannot grow the registry without bound. Live jobs are never evicted.
// The walk starts at the oldest job and stops once enough are gone.
// Caller holds s.mu.
//
// s.terminal may trail the terminal jobs in s.order but never exceeds
// them: a job is counted after its transition, under s.mu, and a job
// pruned in between is uncounted before it is counted.
func (s *Server) pruneLocked() {
	excess := s.terminal - s.opts.JobHistory
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	i := 0
	for ; excess > 0 && i < len(s.order); i++ {
		id := s.order[i]
		if s.jobs[id].terminal() {
			delete(s.jobs, id)
			s.terminal--
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = append(kept, s.order[i:]...)
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j, ok := s.lookup(id); ok {
		writeStatus(w, http.StatusOK, j.status(true))
		return
	}
	s.storedGet(w, id)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]client.RunStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status(false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.lookup(id)
	if !ok {
		s.storedCancel(w, id)
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, j.status(false))
}

// cancelJob cancels a local job. A job still waiting in the queue never
// reaches a worker's RunContext poll promptly, so it is resolved here;
// runJob's terminal setState is a no-op if a worker picks it up
// concurrently. The canceled job stops absorbing identical submissions
// immediately: left registered, a resubmission of the same config would
// be deduped onto a dead job and see "canceled" for a run it never
// canceled.
func (s *Server) cancelJob(j *job) {
	if j.cancel != nil { // a job born done has nothing to cancel
		j.cancel()
	}
	if j.setState(client.StateCanceled, nil, "canceled by request") {
		s.countTerminal()
	}
	s.unregisterInflight(j)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.lookup(id)
	if !ok {
		s.storedEvents(w, id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, codeInternal, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	ch, cur := j.subscribe()
	defer j.unsubscribe(ch)
	if writeSSE(w, "state", cur) != nil {
		return
	}
	flusher.Flush()
	if cur.Terminal() {
		return
	}
	for {
		select {
		case ev := <-ch:
			if writeSSE(w, "state", ev) != nil {
				return
			}
			flusher.Flush()
			if ev.Terminal() {
				return
			}
		case <-j.done:
			writeSSE(w, "state", j.status(false))
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, workload.Suite())
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	reg := experiments.Registry()
	out := make([]client.ExperimentInfo, len(reg))
	for i, e := range reg {
		out[i] = client.ExperimentInfo{ID: e.ID, Description: e.Description}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	jobs := len(s.jobs)
	s.mu.Unlock()
	status, code := "ok", http.StatusOK
	if draining {
		// A draining node 503s every submission; it must fail its
		// health check too, or load balancers keep routing to it.
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, client.Health{
		Status:   status,
		Workers:  s.opts.Workers,
		Running:  s.running.Load(),
		Queued:   len(s.queue),
		QueueCap: s.opts.QueueDepth,
		Jobs:     jobs,
		Cached:   s.results.Len(),
		Node:     s.epochToken,
		Epoch:    s.epochToken,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.Snapshot().WriteProm(w, "nocstar")
}

// writeJSON writes a JSON response with the given status. No indenting:
// an indenting encoder would reformat embedded json.RawMessage results
// and break their byte identity with a direct in-process Run.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeStatus writes a run's status as a JSON response: the bytes
// writeJSON would write, with the result copied once instead of
// re-scanned (see appendWithResult).
func writeStatus(w http.ResponseWriter, status int, st client.RunStatus) {
	result := st.Result
	st.Result = nil
	b, err := appendWithResult(nil, st, result)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// appendWithResult appends to dst the JSON encoding of doc — a
// client.RunStatus or client.SweepResult whose own Result is nil — with
// result spliced in as its "result" field. Both types declare Result
// last and omitempty, so json.Marshal of the document with Result set
// writes the same bytes, provided result is already in encoding/json's
// compact, HTML-escaped form: Marshal re-compacts a json.RawMessage,
// which leaves such bytes as they are. Every result the server holds
// is: it marshals its own as json.Marshal(system.Result), and the
// directory tier adopts a blob only if it is (validResult).
func appendWithResult(dst []byte, doc any, result json.RawMessage) ([]byte, error) {
	b, err := json.Marshal(doc)
	if err != nil {
		return dst, err
	}
	if len(result) == 0 {
		return append(dst, b...), nil
	}
	const field = `,"result":`
	dst = slices.Grow(dst, len(b)+len(field)+len(result)+2)
	dst = append(dst, b[:len(b)-1]...)
	dst = append(dst, field...)
	dst = append(dst, result...)
	return append(dst, '}'), nil
}
