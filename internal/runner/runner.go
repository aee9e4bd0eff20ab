// Package runner fans independent simulation runs out across a bounded
// pool of goroutines and joins their results deterministically.
//
// Every system.Run is a pure function of its Config — equal configs
// produce bit-identical Results — so the experiment drivers can submit
// all of a figure's runs up front, let them execute in any order on the
// pool, and then aggregate the joined results in the original submission
// order. The rendered output is byte-identical to the serial path at any
// parallelism.
//
// The runner also deduplicates work: identical configs submitted while a
// run is in flight share one execution (singleflight), and configs
// submitted through SubmitCached are memoized for the life of the runner
// — the concurrency-safe replacement for the experiments package's old
// unsynchronized baselineCache map.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"nocstar/internal/system"
)

// call is one scheduled execution, possibly shared by several futures.
type call struct {
	done chan struct{}
	res  system.Result
	err  error
}

// Future is a handle to an in-flight (or completed) simulation.
type Future struct {
	c *call
}

// Result blocks until the run completes and returns its outcome.
func (f *Future) Result() (system.Result, error) {
	<-f.c.done
	return f.c.res, f.c.err
}

// Wait blocks until the run completes, panicking on configuration errors
// (experiment configs are code, not user input — matching the drivers'
// historical run() contract).
func (f *Future) Wait() system.Result {
	res, err := f.Result()
	if err != nil {
		panic(fmt.Sprintf("runner: %v", err))
	}
	return res
}

// Progress is a snapshot of the runner's counters. Submitted counts
// scheduled executions (deduplicated submissions are not re-counted);
// Completed counts finished ones; Deduped counts submissions resolved by
// an identical in-flight or memoized run.
type Progress struct {
	Submitted uint64
	Completed uint64
	Deduped   uint64
	// MemRefs totals the simulated memory references of completed runs;
	// benchmarks delta it against wall time for a refs/sec throughput.
	MemRefs uint64
}

// Runner is a bounded worker pool with in-flight deduplication and an
// opt-in memo cache. The zero value is not ready; call New.
type Runner struct {
	mu       sync.Mutex
	cond     *sync.Cond
	active   int
	limit    int
	inflight map[string]*call // keyed in-flight runs (singleflight)
	memo     map[string]*call // completed SubmitCached runs

	submitted atomic.Uint64
	completed atomic.Uint64
	deduped   atomic.Uint64
	memRefs   atomic.Uint64
}

// New returns a runner executing at most parallelism simulations at once.
// parallelism <= 0 selects GOMAXPROCS.
func New(parallelism int) *Runner {
	r := &Runner{
		inflight: map[string]*call{},
		memo:     map[string]*call{},
	}
	r.cond = sync.NewCond(&r.mu)
	r.limit = normalize(parallelism)
	return r
}

func normalize(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

var (
	defaultOnce   sync.Once
	defaultRunner *Runner
)

// Default returns the process-wide shared runner. Sharing one runner
// across experiment drivers lets memoized runs (notably the private
// baselines every speedup divides by) execute once per process.
func Default() *Runner {
	defaultOnce.Do(func() { defaultRunner = New(0) })
	return defaultRunner
}

// SetParallelism adjusts the concurrency bound for subsequent acquisitions
// (n <= 0 restores GOMAXPROCS). Runs already executing are unaffected.
func (r *Runner) SetParallelism(n int) {
	r.mu.Lock()
	r.limit = normalize(n)
	r.mu.Unlock()
	r.cond.Broadcast()
}

// Parallelism reports the current concurrency bound.
func (r *Runner) Parallelism() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.limit
}

// Progress returns the current counters.
func (r *Runner) Progress() Progress {
	return Progress{
		Submitted: r.submitted.Load(),
		Completed: r.completed.Load(),
		Deduped:   r.deduped.Load(),
		MemRefs:   r.memRefs.Load(),
	}
}

// Submit schedules cfg on the pool and returns a future for its result.
// An identical config already in flight (or memoized by SubmitCached) is
// shared rather than re-run.
func (r *Runner) Submit(cfg system.Config) *Future {
	return r.submit(context.Background(), cfg, false)
}

// SubmitContext is Submit with a context governing the execution: the
// simulation runs through system.RunContext, so cancelling ctx (or its
// deadline passing) stops the run promptly with a typed error. A
// duplicate submission that joins an in-flight identical run shares that
// run's context — the joiner's own ctx does not cancel work it merely
// observes. Canceled runs complete with an error and are never memoized.
func (r *Runner) SubmitContext(ctx context.Context, cfg system.Config) *Future {
	return r.submit(ctx, cfg, false)
}

// SubmitCached is Submit with memoization: the completed result is kept
// for the life of the runner, so identical future submissions — from any
// goroutine or driver — return it without re-running. Use it for runs
// shared across experiments, such as private baselines.
func (r *Runner) SubmitCached(cfg system.Config) *Future {
	return r.submit(context.Background(), cfg, true)
}

// SubmitCachedContext is SubmitCached with a context governing the
// execution (and carrying the WithExperiment label, if any).
func (r *Runner) SubmitCachedContext(ctx context.Context, cfg system.Config) *Future {
	return r.submit(ctx, cfg, true)
}

// Run is Submit followed by Wait.
func (r *Runner) Run(cfg system.Config) system.Result {
	return r.Submit(cfg).Wait()
}

func (r *Runner) submit(ctx context.Context, cfg system.Config, cache bool) *Future {
	if ctx != nil && ctx.Err() != nil {
		// Dead on arrival (e.g. a service job canceled while it waited in
		// the queue): complete immediately with the typed error instead of
		// occupying a worker slot — and, crucially, without registering an
		// in-flight call that a live identical submission could join and
		// inherit the cancellation from.
		c := &call{done: make(chan struct{}), err: ctxSentinel(ctx.Err())}
		close(c.done)
		return &Future{c: c}
	}
	key, keyed := Key(cfg)
	if keyed {
		r.mu.Lock()
		if c, ok := r.memo[key]; ok {
			r.mu.Unlock()
			r.deduped.Add(1)
			return &Future{c: c}
		}
		if c, ok := r.inflight[key]; ok {
			r.mu.Unlock()
			r.deduped.Add(1)
			return &Future{c: c}
		}
		c := &call{done: make(chan struct{})}
		r.inflight[key] = c
		r.mu.Unlock()
		r.submitted.Add(1)
		go r.execute(ctx, cfg, c, key, cache)
		return &Future{c: c}
	}
	c := &call{done: make(chan struct{})}
	r.submitted.Add(1)
	go r.execute(ctx, cfg, c, "", cache)
	return &Future{c: c}
}

func (r *Runner) execute(ctx context.Context, cfg system.Config, c *call, key string, cache bool) {
	r.acquire()
	// Label the execution for CPU profiles: pprof samples taken while
	// this run executes carry the config's identity and the experiment
	// that submitted it, so a sweep profile decomposes by figure and by
	// config rather than blurring every simulation together.
	hash, err := cfg.CanonicalHash()
	if err != nil {
		hash = "unkeyed"
	}
	pprof.Do(ctx, pprof.Labels(
		"nocstar_config", hash,
		"nocstar_experiment", Experiment(ctx),
	), func(ctx context.Context) {
		c.res, c.err = system.RunContext(ctx, cfg)
	})
	r.release()
	if c.err == nil {
		r.memRefs.Add(c.res.MemRefs)
	}
	if key != "" {
		r.mu.Lock()
		delete(r.inflight, key)
		if cache && c.err == nil {
			r.memo[key] = c
		}
		r.mu.Unlock()
	}
	close(c.done)
	r.completed.Add(1)
}

// ctxSentinel maps a context error onto the system package's typed
// run-termination sentinels, matching what RunContext would return.
func ctxSentinel(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w before start", system.ErrDeadlineExceeded)
	}
	return fmt.Errorf("%w before start", system.ErrCanceled)
}

// acquire blocks until a worker slot is free.
func (r *Runner) acquire() {
	r.mu.Lock()
	for r.active >= r.limit {
		r.cond.Wait()
	}
	r.active++
	r.mu.Unlock()
}

func (r *Runner) release() {
	r.mu.Lock()
	r.active--
	r.mu.Unlock()
	r.cond.Signal()
}

// Map runs fn over items on the runner's pool and returns the results in
// item order — the deterministic fan-out for work that is not a
// system.Config (e.g. the Fig. 11c injection-rate sweep). fn must not
// block on other pool work, or the pool can deadlock at low parallelism.
func Map[T, R any](r *Runner, items []T, fn func(T) R) []R {
	out := make([]R, len(items))
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		r.submitted.Add(1)
		go func(i int) {
			defer wg.Done()
			r.acquire()
			defer func() {
				r.release()
				r.completed.Add(1)
			}()
			out[i] = fn(items[i])
		}(i)
	}
	wg.Wait()
	return out
}

// Key returns the canonical dedup key for cfg: its schema-versioned
// canonical JSON encoding (system.Config.MarshalCanonical), the same
// bytes the HTTP service hashes for its result cache. Because the
// encoding normalizes first, two configs that differ only in
// defaulted-versus-explicit fields share one key — and one execution.
// ok is false when the config cannot be keyed: it carries live address
// streams or an attached Checker (state the config value does not
// capture), or it is invalid — in which case every submission runs.
func Key(cfg system.Config) (key string, ok bool) {
	b, err := cfg.MarshalCanonical()
	if err != nil {
		return "", false
	}
	return string(b), true
}

// experimentKey carries the submitting experiment's name in a context.
type experimentKey struct{}

// WithExperiment labels ctx with the experiment (figure/table) that owns
// the runs submitted under it; the runner attaches it as a pprof label.
func WithExperiment(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, experimentKey{}, name)
}

// Experiment reports the experiment name ctx was labeled with, or
// "unlabeled".
func Experiment(ctx context.Context) string {
	if name, ok := ctx.Value(experimentKey{}).(string); ok && name != "" {
		return name
	}
	return "unlabeled"
}
