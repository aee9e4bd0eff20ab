// Package server exposes the simulator as a long-running HTTP service —
// the "simulation as a service" front door. A daemon accepts simulation
// jobs (POST /v1/runs with a JSON Config, or POST /v1/sweeps with an
// array of them), validates them with typed field errors, canonically
// hashes them, and executes them on a bounded worker pool that reuses
// internal/runner's singleflight machinery; a content-addressed result
// store keyed on the canonical config hash serves repeated sweeps —
// from memory, and optionally from a persistent directory shared
// between replicas, so results survive restarts. Results served over
// HTTP are byte-identical to a direct in-process system.Run of the same
// Config.
//
// Horizontal scale: with a peer list (Options.Peers/Node), nodes form a
// dynamic cluster over heartbeat-based membership (internal/cluster).
// Each canonical hash has exactly one owner under rendezvous hashing
// over the *live* membership view, so ownership recomputes on
// join/leave instead of being frozen at process start. A submission
// landing on a non-owner is transparently proxied to the owner; when
// the owner becomes unreachable mid-flight, the submission hands off to
// the next live node in HRW order (counted, never silently duplicated)
// and only then degrades to local execution. Terminal results are
// pushed write-behind to the hash's HRW successors (Options.Replicas),
// so an owner death loses no hot results; and job IDs embed the minting
// node and its epoch, so every /v1/runs/{id} endpoint resolves
// non-local IDs by consulting the membership view — proxying to the
// live owner or serving straight from the replicated store.
//
// Production plumbing: per-request run deadlines (?timeout=30s),
// backpressure (a bounded local queue plus a cluster-wide sweep
// admission budget fed by gossiped queue depths; both reject with 429
// and Retry-After), graceful shutdown that drains in-flight runs,
// /healthz (503 while draining, so load balancers stop routing), a
// bounded terminal-job history, /v1/cluster exposing the membership
// view and ownership previews, and /metrics exporting the
// internal/metrics counters in Prometheus text format. Every non-2xx
// response uses the unified error envelope (see errors.go).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"nocstar/internal/cluster"
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
	// CacheEntries bounds the in-memory tier of the result store
	// (<= 0 selects 128).
	CacheEntries int
	// StoreDir, when non-empty, backs the in-memory cache with a
	// persistent content-addressed store: one <hash>.json blob per
	// result, written atomically, shareable between replicas via a
	// common volume. Results survive restarts.
	StoreDir string
	// StoreMaxEntries bounds the directory store
	// (<= 0 selects store.DefaultDirEntries).
	StoreMaxEntries int
	// StoreMaxBytes bounds the directory store's payload bytes
	// (<= 0 leaves it unbounded).
	StoreMaxBytes int64
	// Store overrides the result store outright; when set, the
	// CacheEntries/StoreDir fields are ignored.
	Store store.Store
	// JobHistory bounds retained terminal jobs: once more than this
	// many jobs have reached a terminal state, the oldest are evicted
	// from the registry (their IDs 404). <= 0 selects 512.
	JobHistory int
	// Node and Peers enable clustering. Peers seeds the membership
	// (base URLs; more members are learned via heartbeat gossip, so
	// the list need not be complete); Node is this replica's own base
	// URL and must be reachable by peers. Empty Peers disables
	// clustering.
	Node  string
	Peers []string
	// HeartbeatInterval paces membership heartbeats (<= 0 selects 1s).
	HeartbeatInterval time.Duration
	// SuspectAfter and DeadAfter are the membership silence deadlines
	// (<= 0 selects 3x and 8x HeartbeatInterval).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// Replicas is the number of HRW successors every terminal result
	// is pushed to write-behind (0 selects 2, < 0 disables).
	Replicas int
	// ClusterQueueBudget bounds the aggregate queued jobs a sweep may
	// add cluster-wide: admission compares the gossiped queue depths
	// plus the sweep size against this budget and rejects with 429
	// when exceeded. <= 0 derives the budget from the live members'
	// summed queue capacities.
	ClusterQueueBudget int
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
	if o.CacheEntries <= 0 {
		o.CacheEntries = 128
	}
	if o.JobHistory <= 0 {
		o.JobHistory = 512
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	switch {
	case o.Replicas == 0:
		o.Replicas = 2
	case o.Replicas < 0:
		o.Replicas = 0
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
	proxied      *metrics.AtomicCounter
	proxyFallbck *metrics.AtomicCounter
	proxyHandoff *metrics.AtomicCounter
	reresolved   *metrics.AtomicCounter
	remoteGets   *metrics.AtomicCounter
	sweepConfigs *metrics.AtomicCounter
	sweepSpilled *metrics.AtomicCounter
	sweepBounced *metrics.AtomicCounter
	replicaPush  *metrics.AtomicCounter
	replicaRecv  *metrics.AtomicCounter
	replicaErrs  *metrics.AtomicCounter
	storeErrors  *metrics.AtomicCounter
}

// Server is the resident simulation service. Create with New, mount
// Handler on an http.Server, and stop with Shutdown.
type Server struct {
	opts Options
	pool *runner.Runner
	mux  *http.ServeMux

	// clu tracks dynamic membership; nil when clustering is disabled.
	clu *cluster.Membership
	// nodeID and epochToken identify this process incarnation; every
	// job ID minted here embeds both, so any cluster node can route
	// the ID back (or detect that the incarnation is gone).
	nodeID     string
	epoch      int64
	epochToken string
	self       string // this node's base URL ("" when unclustered)

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	order    []string        // job IDs in submission order, for listing
	inflight map[string]*job // canonical hash -> live (non-terminal) job
	results  store.Store

	seq     atomic.Uint64
	running atomic.Int64

	reg *metrics.Registry
	met serverMetrics
}

// New builds a server and starts its worker pool (and, when Peers is
// non-empty, its membership heartbeats). It fails when the persistent
// store directory cannot be opened or the peer list is inconsistent (a
// non-empty Peers requires Node).
func New(opts Options) (*Server, error) {
	opts = opts.normalized()
	results := opts.Store
	if results == nil {
		mem := store.NewMemory(opts.CacheEntries)
		if opts.StoreDir != "" {
			dir, err := store.OpenDir(opts.StoreDir, opts.StoreMaxEntries, opts.StoreMaxBytes)
			if err != nil {
				return nil, err
			}
			results = store.Tiered(mem, dir)
		} else {
			results = mem
		}
	}
	peers, self, err := normalizePeers(opts.Peers, opts.Node)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:     opts,
		pool:     runner.New(opts.Workers),
		self:     self,
		queue:    make(chan *job, opts.QueueDepth),
		jobs:     map[string]*job{},
		inflight: map[string]*job{},
		results:  results,
		reg:      metrics.NewRegistry(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if len(peers) > 0 {
		s.clu = cluster.New(cluster.Options{
			Self:         self,
			Seeds:        peers,
			Interval:     opts.HeartbeatInterval,
			SuspectAfter: opts.SuspectAfter,
			DeadAfter:    opts.DeadAfter,
			StatsFunc: func() cluster.Stats {
				return cluster.Stats{
					QueueDepth:   len(s.queue),
					QueueCap:     opts.QueueDepth,
					StoreEntries: s.results.Len(),
				}
			},
		})
		s.nodeID = s.clu.SelfID()
		s.epoch = s.clu.Epoch()
	} else {
		// Unclustered nodes still mint namespaced IDs so the API shape
		// is uniform; the identity is synthetic but the epoch is real.
		id := opts.Node
		if id == "" {
			id = "local"
		}
		s.nodeID = cluster.NodeID(id)
		s.epoch = time.Now().UnixNano()
	}
	s.epochToken = epochToken(s.epoch)
	s.met = serverMetrics{
		requests:     s.reg.AtomicCounter("server.http.requests"),
		submitted:    s.reg.AtomicCounter("server.runs.submitted"),
		invalid:      s.reg.AtomicCounter("server.runs.invalid"),
		rejected:     s.reg.AtomicCounter("server.runs.rejected"),
		deduped:      s.reg.AtomicCounter("server.runs.deduped"),
		cacheHits:    s.reg.AtomicCounter("server.cache.hits"),
		executed:     s.reg.AtomicCounter("server.runs.executed"),
		completed:    s.reg.AtomicCounter("server.runs.completed"),
		failed:       s.reg.AtomicCounter("server.runs.failed"),
		canceledRun:  s.reg.AtomicCounter("server.runs.canceled"),
		proxied:      s.reg.AtomicCounter("server.runs.proxied"),
		proxyFallbck: s.reg.AtomicCounter("server.proxy.fallback"),
		proxyHandoff: s.reg.AtomicCounter("server.proxy.handoff"),
		reresolved:   s.reg.AtomicCounter("server.proxy.reresolved"),
		remoteGets:   s.reg.AtomicCounter("server.runs.remote_resolved"),
		sweepConfigs: s.reg.AtomicCounter("server.sweep.configs"),
		sweepSpilled: s.reg.AtomicCounter("server.sweep.spilled"),
		sweepBounced: s.reg.AtomicCounter("server.sweep.admission_rejected"),
		replicaPush:  s.reg.AtomicCounter("server.replica.pushed"),
		replicaRecv:  s.reg.AtomicCounter("server.replica.received"),
		replicaErrs:  s.reg.AtomicCounter("server.replica.errors"),
		storeErrors:  s.reg.AtomicCounter("server.store.errors"),
	}
	s.routes()
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	if s.clu != nil {
		s.clu.Start()
	}
	return s, nil
}

// epochToken renders a process epoch as the compact base-36 token job
// IDs embed.
func epochToken(epoch int64) string {
	return strconv.FormatInt(epoch, 36)
}

// normalizePeers canonicalizes the peer seed list (trailing slashes
// trimmed, empties dropped) and this node's own base URL. Unlike the
// static-sharding era the list is only a seed: membership is dynamic,
// and Node need not appear in Peers.
func normalizePeers(peers []string, node string) ([]string, string, error) {
	var out []string
	self := strings.TrimRight(strings.TrimSpace(node), "/")
	for _, p := range peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" && p != self {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, self, nil
	}
	if self == "" {
		return nil, "", fmt.Errorf("server: -peers requires -node (this replica's reachable base URL)")
	}
	return out, self, nil
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
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("PUT /v1/store/{hash}", s.handleStorePut)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.clu != nil {
		s.mux.HandleFunc("POST /v1/cluster/heartbeat", s.clu.HandleHeartbeat)
	}
}

// Shutdown gracefully stops the server: submissions are refused with
// 503, queued and running jobs (including proxied ones) drain to
// completion, and the worker pool exits. Heartbeats stop immediately,
// so live peers route new work around this node while it drains. If
// ctx expires first, every remaining run is canceled (they stop at the
// next context-poll stride) and Shutdown returns ctx's error once the
// pool exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	if s.clu != nil {
		s.clu.Stop()
	}

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-drained
		return ctx.Err()
	}
}

// worker executes queued jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job through the shared runner pool. A job already
// terminal — canceled while it waited in the queue — is only
// deregistered, never executed: its context is dead, and running it
// would park a stale singleflight call in the runner that a fresh
// resubmission could join.
func (s *Server) runJob(j *job) {
	if j.terminal() {
		s.unregisterInflight(j)
		return
	}
	j.setState(stateRunning, nil, "")
	s.execJob(j)
}

// execJob runs j's config on the pool and finishes the job. It is the
// local-execution tail shared by queue workers and the proxy fallback.
func (s *Server) execJob(j *job) {
	s.running.Add(1)
	s.met.executed.Inc()
	res, err := s.pool.SubmitContext(j.ctx, j.cfg).Result()
	s.running.Add(-1)
	j.cancel() // release the deadline timer

	var result json.RawMessage
	var state jobState
	var msg string
	switch {
	case err == nil:
		if b, merr := json.Marshal(res); merr != nil {
			state, msg = stateFailed, fmt.Sprintf("marshaling result: %v", merr)
		} else {
			state, result = stateDone, b
		}
	case errors.Is(err, system.ErrCanceled), errors.Is(err, system.ErrDeadlineExceeded):
		state, msg = stateCanceled, err.Error()
	default:
		state, msg = stateFailed, err.Error()
	}
	s.finishJob(j, state, result, msg)
}

// finishJob moves j to a terminal state: it leaves the singleflight
// registry, a done result enters the content-addressed store (and is
// pushed write-behind to the hash's HRW successors), and the outcome
// counters advance.
func (s *Server) finishJob(j *job, state jobState, result json.RawMessage, msg string) {
	s.unregisterInflight(j)
	if state == stateDone {
		if err := s.results.Put(j.hash, result); err != nil {
			s.met.storeErrors.Inc()
		}
		s.replicate(j.hash, result)
	}
	j.setState(state, result, msg)
	switch state {
	case stateDone:
		s.met.completed.Inc()
	case stateCanceled:
		s.met.canceledRun.Inc()
	default:
		s.met.failed.Inc()
	}
}

// unregisterInflight removes j from the singleflight registry if it is
// still the registered entry for its hash.
func (s *Server) unregisterInflight(j *job) {
	s.mu.Lock()
	if s.inflight[j.hash] == j {
		delete(s.inflight, j.hash)
	}
	s.mu.Unlock()
}

// newJob constructs a job (not yet registered) with its execution
// context. IDs are namespaced cluster-wide:
//
//	<nodeID>-<epoch36>-<seq>-<canonical hash>
//
// so any node can route an ID back to the node (and incarnation) that
// minted it, and — because the full canonical hash rides along — serve
// the result straight from the replicated store when that node is gone.
func (s *Server) newJob(hash string, cfg system.Config, timeout time.Duration) *job {
	j := &job{
		id:    fmt.Sprintf("%s-%s-%06d-%s", s.nodeID, s.epochToken, s.seq.Add(1), hash),
		node:  s.nodeID,
		hash:  hash,
		cfg:   cfg,
		done:  make(chan struct{}),
		state: stateQueued,
	}
	j.timeout = timeout
	if timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(s.baseCtx, timeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	}
	return j
}

// parseJobID splits a namespaced job ID into its minting node, epoch
// token, and canonical hash. It rejects strings that do not fit the
// scheme.
func parseJobID(id string) (nodeID, epoch, hash string, ok bool) {
	parts := strings.SplitN(id, "-", 4)
	if len(parts) != 4 {
		return "", "", "", false
	}
	nodeID, epoch, hash = parts[0], parts[1], parts[3]
	if len(nodeID) != 16 || epoch == "" || len(hash) < 4 || len(hash) > 128 {
		return "", "", "", false
	}
	for _, c := range hash {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", "", "", false
		}
	}
	return nodeID, epoch, hash, true
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
	// acqProxied: the hash is owned by (or spilled to) a peer; a proxy
	// job mirrors the remote execution.
	acqProxied
)

// acquire resolves a validated config to a job: a store hit is born
// done, an identical live job is joined, a hash owned by a live peer is
// transparently proxied (with forwarded requests allowed one re-resolve
// against a newer membership view before resolving locally — see
// route), and otherwise a fresh job enters the bounded queue. allowSpill
// permits routing a leg to the owner's HRW successor when the gossiped
// view shows the owner's queue saturated. The returned errors are
// errDraining and errQueueFull.
func (s *Server) acquire(cfg system.Config, hash string, timeout time.Duration, fwd forwardInfo, allowSpill bool) (*job, acquisition, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, 0, errDraining
	}
	s.mu.Unlock()

	// Result store: a config already simulated — by this process, a
	// previous incarnation of it, or a replica sharing the store — is
	// served as a job born in the done state. The store read happens
	// outside s.mu (it may touch disk); a racing identical submission
	// is resolved by the singleflight check below.
	if cached, ok := s.results.Get(hash); ok {
		j := s.newJob(hash, cfg, 0)
		j.state = stateDone
		j.cached = true
		j.result = cached
		close(j.done)
		j.cancel()
		s.mu.Lock()
		s.registerLocked(j)
		s.mu.Unlock()
		s.met.cacheHits.Inc()
		return j, acqCached, nil
	}

	// Routing happens outside s.mu: it reads the membership view.
	target, remote := s.route(hash, fwd, allowSpill)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, 0, errDraining
	}
	// Singleflight: an identical config already queued, running, or
	// proxied is joined, not re-simulated.
	if live, ok := s.inflight[hash]; ok {
		s.met.deduped.Inc()
		return live, acqJoined, nil
	}
	if remote {
		j := s.newJob(hash, cfg, timeout)
		s.registerLocked(j)
		s.inflight[hash] = j
		s.met.proxied.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.proxyJob(j, target)
		}()
		return j, acqProxied, nil
	}
	j := s.newJob(hash, cfg, timeout)
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

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	cfg, err := system.UnmarshalConfig(body)
	if err != nil {
		s.met.invalid.Inc()
		writeError(w, http.StatusBadRequest, codeInvalidConfig, err.Error())
		return
	}
	if err := cfg.Validate(); err != nil {
		s.met.invalid.Inc()
		msg := "invalid config"
		var fields []system.FieldError
		var ve *system.ValidationError
		if errors.As(err, &ve) {
			fields = ve.Fields
		} else {
			msg = err.Error()
		}
		writeErrorFields(w, http.StatusBadRequest, codeInvalidConfig, msg, fields)
		return
	}
	hash, err := cfg.CanonicalHash()
	if err != nil {
		s.met.invalid.Inc()
		writeError(w, http.StatusBadRequest, codeInvalidConfig, err.Error())
		return
	}
	timeout, err := s.parseTimeout(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}

	j, how, err := s.acquire(cfg, hash, timeout, parseForward(r), false)
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
		writeJSON(w, http.StatusOK, j.status(true))
	case acqJoined:
		st := j.status(false)
		st.Deduped = true
		writeJSON(w, http.StatusAccepted, st)
	default: // queued or proxied
		w.Header().Set("Location", "/v1/runs/"+j.id)
		writeJSON(w, http.StatusAccepted, j.status(false))
	}
}

// registerLocked records a job in the ID index and prunes the terminal
// history. Caller holds s.mu.
func (s *Server) registerLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.pruneLocked()
}

// pruneLocked evicts the oldest terminal jobs beyond Options.JobHistory
// so sweep-replay traffic (every cache hit registers a born-done job)
// cannot grow the registry without bound. Live jobs are never evicted.
// Caller holds s.mu.
func (s *Server) pruneLocked() {
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].terminal() {
			terminal++
		}
	}
	excess := terminal - s.opts.JobHistory
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if excess > 0 && s.jobs[id].terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
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
		writeJSON(w, http.StatusOK, j.status(true))
		return
	}
	s.resolveRemoteGet(w, r, id)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]runStatus, 0, len(s.order))
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
		s.resolveRemoteCancel(w, r, id)
		return
	}
	j.cancel()
	// A job still waiting in the queue never reaches a worker's
	// RunContext poll promptly, so resolve it here; runJob's terminal
	// setState is a no-op if the worker picks it up concurrently.
	j.setState(stateCanceled, nil, "canceled by request")
	// The canceled job must stop absorbing identical submissions
	// immediately: left registered, a resubmission of the same config
	// would be deduped onto a dead job and see "canceled" for a run it
	// never canceled.
	s.unregisterInflight(j)
	writeJSON(w, http.StatusOK, j.status(false))
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.lookup(id)
	if !ok {
		s.resolveRemoteEvents(w, r, id)
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
	if writeEvent(w, cur) != nil {
		return
	}
	flusher.Flush()
	if jobState(cur.State).terminal() {
		return
	}
	for {
		select {
		case ev := <-ch:
			if writeEvent(w, ev) != nil {
				return
			}
			flusher.Flush()
			if jobState(ev.State).terminal() {
				return
			}
		case <-j.done:
			writeEvent(w, j.event())
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// writeEvent emits one SSE frame, reporting marshal and write failures
// so callers terminate the stream instead of silently dropping frames.
func writeEvent(w io.Writer, ev jobEvent) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("marshaling event: %w", err)
	}
	_, err = fmt.Fprintf(w, "event: state\ndata: %s\n\n", b)
	return err
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, workload.Suite())
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, experiments.Describe())
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
	members := 1
	if s.clu != nil {
		members = len(s.clu.View().Nodes)
	}
	writeJSON(w, code, map[string]any{
		"status":    status,
		"workers":   s.opts.Workers,
		"running":   s.running.Load(),
		"queued":    len(s.queue),
		"queue_cap": s.opts.QueueDepth,
		"jobs":      jobs,
		"cached":    s.results.Len(),
		"node":      s.nodeID,
		"epoch":     s.epochToken,
		"addr":      s.self,
		"members":   members,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	snap := s.reg.Snapshot()
	if err := snap.WriteProm(w, "nocstar"); err != nil {
		return
	}
	// The shared pool's own counters, for dedup observability.
	p := s.pool.Progress()
	fmt.Fprintf(w, "# TYPE nocstar_pool_submitted counter\nnocstar_pool_submitted %d\n", p.Submitted)
	fmt.Fprintf(w, "# TYPE nocstar_pool_completed counter\nnocstar_pool_completed %d\n", p.Completed)
	fmt.Fprintf(w, "# TYPE nocstar_pool_deduped counter\nnocstar_pool_deduped %d\n", p.Deduped)
	// Membership gauges: the live view in numbers.
	if s.clu != nil {
		v := s.clu.View()
		counts := map[cluster.State]int{}
		depth := 0
		for _, n := range v.Nodes {
			counts[n.State]++
			if n.State == cluster.StateAlive {
				depth += n.QueueDepth
			}
		}
		fmt.Fprintf(w, "# TYPE nocstar_cluster_view_version gauge\nnocstar_cluster_view_version %d\n", v.Version)
		fmt.Fprintf(w, "# TYPE nocstar_cluster_members_alive gauge\nnocstar_cluster_members_alive %d\n", counts[cluster.StateAlive])
		fmt.Fprintf(w, "# TYPE nocstar_cluster_members_suspect gauge\nnocstar_cluster_members_suspect %d\n", counts[cluster.StateSuspect])
		fmt.Fprintf(w, "# TYPE nocstar_cluster_members_dead gauge\nnocstar_cluster_members_dead %d\n", counts[cluster.StateDead])
		fmt.Fprintf(w, "# TYPE nocstar_cluster_queue_depth gauge\nnocstar_cluster_queue_depth %d\n", depth)
	}
}

// writeJSON writes a JSON response with the given status. No indenting:
// an indenting encoder would reformat embedded json.RawMessage results
// and break their byte identity with a direct in-process Run.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
