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
// A Runner keeps one map of calls keyed by the config's canonical
// encoding. Submit shares a run with an identical one in flight or
// memoized (singleflight) and drops it from the map when it completes, so
// a later identical Submit executes again. SubmitCachedContext keeps a
// successful run in the map for the life of the runner, so every later
// identical submission returns it without executing. The experiment
// drivers submit every run that way through Default, which therefore
// holds every result it has produced for the life of the process.
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
	keep bool // memoized: stays in the runner's map once it succeeds (guarded by Runner.mu)
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
// opt-in memo. The zero value is not ready; call New.
type Runner struct {
	mu     sync.Mutex
	cond   *sync.Cond
	active int
	limit  int
	calls  map[string]*call // keyed runs in flight, and memoized ones

	submitted atomic.Uint64
	completed atomic.Uint64
	deduped   atomic.Uint64
	memRefs   atomic.Uint64
}

// New returns a runner executing at most parallelism simulations at once.
// parallelism <= 0 selects GOMAXPROCS.
func New(parallelism int) *Runner {
	r := &Runner{calls: map[string]*call{}}
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

// Default returns the process-wide shared runner. The experiment drivers
// memoize every run on it, so each configuration executes once per
// process, and it holds every result for the life of the process.
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
// An identical config already in flight or memoized is shared rather than
// re-run. A run Submit starts is not memoized: an identical Submit after
// it completes executes again.
func (r *Runner) Submit(cfg system.Config) *Future {
	return r.submit(context.Background(), cfg, false)
}

// SubmitCachedContext is Submit with memoization and a context. A
// successful result is kept for the life of the runner, so identical
// later submissions — from any goroutine or driver — return it without
// executing. The simulation runs through system.RunContext, so cancelling
// ctx (or its deadline passing) stops the run promptly with a typed
// error; a submission that joins an identical in-flight run shares that
// run's context, and a failed or canceled run is never memoized. ctx also
// carries the WithExperiment label, if any.
func (r *Runner) SubmitCachedContext(ctx context.Context, cfg system.Config) *Future {
	return r.submit(ctx, cfg, true)
}

func (r *Runner) submit(ctx context.Context, cfg system.Config, keep bool) *Future {
	if ctx.Err() != nil {
		// Dead on arrival: complete immediately with the typed error
		// instead of occupying a worker slot — and, crucially, without
		// registering a call that a live identical submission could join
		// and inherit the cancellation from.
		c := &call{done: make(chan struct{}), err: ctxSentinel(ctx.Err())}
		close(c.done)
		return &Future{c: c}
	}
	c := &call{done: make(chan struct{}), keep: keep}
	key, keyed := Key(cfg)
	if keyed {
		r.mu.Lock()
		if prev, ok := r.calls[key]; ok {
			// A memoizing submission that joins a plain in-flight run
			// keeps its result too.
			prev.keep = prev.keep || keep
			r.mu.Unlock()
			r.deduped.Add(1)
			return &Future{c: prev}
		}
		r.calls[key] = c
		r.mu.Unlock()
	}
	r.submitted.Add(1)
	go r.execute(ctx, cfg, c, key)
	return &Future{c: c}
}

func (r *Runner) execute(ctx context.Context, cfg system.Config, c *call, key string) {
	r.acquire()
	c.res, c.err = Execute(ctx, cfg)
	r.release()
	if c.err == nil {
		r.memRefs.Add(c.res.MemRefs)
	}
	if key != "" {
		r.mu.Lock()
		if !c.keep || c.err != nil {
			delete(r.calls, key)
		}
		r.mu.Unlock()
	}
	close(c.done)
	r.completed.Add(1)
}

// Execute runs one config on the calling goroutine: the pool's workers
// and the HTTP service's workers both run every simulation through it.
// A context already dead returns its typed sentinel without building a
// system. The run carries pprof labels naming its config and the
// experiment that submitted it, so a sweep profile decomposes by figure
// and by config rather than blurring every simulation together. A
// panicking run fails alone, with an error naming its config.
func Execute(ctx context.Context, cfg system.Config) (res system.Result, err error) {
	if ctx.Err() != nil {
		return system.Result{}, ctxSentinel(ctx.Err())
	}
	hash, herr := cfg.CanonicalHash()
	if herr != nil {
		hash = "unkeyed"
	}
	pprof.Do(ctx, pprof.Labels(
		"nocstar_config", hash,
		"nocstar_experiment", Experiment(ctx),
	), func(ctx context.Context) {
		defer func() {
			if v := recover(); v != nil {
				res, err = system.Result{}, fmt.Errorf("run %s panicked: %v", hash, v)
			}
		}()
		res, err = system.RunContext(ctx, cfg)
	})
	return res, err
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
