package runner

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nocstar/internal/system"
	"nocstar/internal/vm"
	"nocstar/internal/workload"
)

func testConfig(instr uint64) system.Config {
	spec, _ := workload.ByName("canneal")
	return system.Config{
		Org:            system.Nocstar,
		Cores:          16,
		Apps:           []system.App{{Spec: spec, Threads: 16, HammerSlice: system.HammerNone}},
		InstrPerThread: instr,
		Seed:           1,
	}
}

// The engine's reproducibility contract must survive the worker pool: a
// config run directly, run on the pool, and run on the pool again must
// produce identical Results in every field, at any parallelism.
func TestDeterministicAcrossPool(t *testing.T) {
	cfg := testConfig(8_000)
	direct, err := system.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4, 16} {
		r := New(par)
		a := r.Submit(cfg).Wait()
		b := r.Submit(cfg).Wait()
		if !reflect.DeepEqual(direct, a) || !reflect.DeepEqual(a, b) {
			t.Fatalf("par %d: pooled run diverged from direct run", par)
		}
	}
}

// Futures submitted together must join in submission order with each
// future bound to its own config.
func TestJoinOrder(t *testing.T) {
	r := New(3)
	instrs := []uint64{2_000, 4_000, 6_000, 8_000}
	var futs []*Future
	for _, n := range instrs {
		futs = append(futs, r.Submit(testConfig(n)))
	}
	for i, f := range futs {
		res := f.Wait()
		want := uint64(16) * instrs[i]
		if res.Instructions != want {
			t.Fatalf("future %d: %d instructions, want %d", i, res.Instructions, want)
		}
	}
}

func TestSingleflightDedup(t *testing.T) {
	r := New(2)
	cfg := testConfig(8_000)
	var futs []*Future
	for i := 0; i < 6; i++ {
		futs = append(futs, r.Submit(cfg))
	}
	first := futs[0].Wait()
	for _, f := range futs[1:] {
		if !reflect.DeepEqual(first, f.Wait()) {
			t.Fatal("deduped futures disagree")
		}
	}
	p := r.Progress()
	if p.Submitted+p.Deduped != 6 {
		t.Fatalf("submitted %d + deduped %d != 6", p.Submitted, p.Deduped)
	}
	if p.Deduped == 0 {
		t.Fatal("identical in-flight configs were not deduplicated")
	}
}

func TestSubmitCachedMemoizes(t *testing.T) {
	r := New(1)
	cfg := testConfig(4_000)
	a := r.SubmitCachedContext(context.Background(), cfg).Wait()
	if got := r.Progress().Submitted; got != 1 {
		t.Fatalf("submitted = %d, want 1", got)
	}
	// Second submission — sequential, so nothing is in flight — must be
	// served from the memo without a new execution. Plain Submit shares
	// the memoized result too.
	b := r.SubmitCachedContext(context.Background(), cfg).Wait()
	c := r.Submit(cfg).Wait()
	if got := r.Progress().Submitted; got != 1 {
		t.Fatalf("memoized config re-ran: submitted = %d", got)
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
		t.Fatal("memoized results disagree")
	}
	// Plain Submit must NOT memoize: a fresh config submitted twice
	// sequentially runs twice (benchmarks rely on re-running).
	cfg2 := testConfig(2_000)
	r.Submit(cfg2).Wait()
	r.Submit(cfg2).Wait()
	if got := r.Progress().Submitted; got != 3 {
		t.Fatalf("plain Submit memoized: submitted = %d, want 3", got)
	}
}

// TestCachedJoinKeepsPlainRun: a memoizing submission that joins an
// identical plain run still queued keeps that run's result, so a later
// identical Submit is served without executing.
func TestCachedJoinKeepsPlainRun(t *testing.T) {
	r := New(1)
	started, release := make(chan struct{}), make(chan struct{})
	held := make(chan struct{})
	go func() {
		// Occupy the only worker slot so both submissions below queue.
		Map(r, []int{0}, func(int) int { close(started); <-release; return 0 })
		close(held)
	}()
	<-started
	cfg := testConfig(2_000)
	fa := r.Submit(cfg)
	fb := r.SubmitCachedContext(context.Background(), cfg)
	close(release)
	<-held
	a, b := fa.Wait(), fb.Wait()
	c := r.Submit(cfg).Wait()
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
		t.Fatal("shared results disagree")
	}
	// One Map item and one execution; the join and the last Submit are
	// dedups.
	if p := r.Progress(); p.Submitted != 2 || p.Deduped != 2 {
		t.Fatalf("want 2 submitted and 2 deduped, got %+v", p)
	}
}

func TestParallelismBound(t *testing.T) {
	r := New(3)
	var active, peak atomic.Int64
	var mu sync.Mutex
	bump := func() {
		a := active.Add(1)
		mu.Lock()
		if a > peak.Load() {
			peak.Store(a)
		}
		mu.Unlock()
	}
	Map(r, make([]int, 32), func(int) int {
		bump()
		defer active.Add(-1)
		time.Sleep(2 * time.Millisecond)
		return 0
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds limit 3", p)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("pool never ran concurrently (peak %d)", p)
	}
}

func TestSetParallelism(t *testing.T) {
	r := New(2)
	if r.Parallelism() != 2 {
		t.Fatalf("Parallelism() = %d", r.Parallelism())
	}
	r.SetParallelism(5)
	if r.Parallelism() != 5 {
		t.Fatalf("after SetParallelism(5): %d", r.Parallelism())
	}
	r.SetParallelism(0)
	if r.Parallelism() < 1 {
		t.Fatalf("SetParallelism(0) must restore GOMAXPROCS, got %d", r.Parallelism())
	}
}

func TestMapOrdered(t *testing.T) {
	r := New(4)
	in := []int{5, 3, 9, 1, 7, 2}
	out := Map(r, in, func(v int) int { return v * v })
	for i, v := range in {
		if out[i] != v*v {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], v*v)
		}
	}
}

func TestErrorPropagation(t *testing.T) {
	r := New(1)
	bad := system.Config{} // no cores, no apps
	if _, err := r.Submit(bad).Result(); err == nil {
		t.Fatal("invalid config produced no error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Wait did not panic on config error")
		}
	}()
	r.Submit(bad).Wait()
}

func TestKeyStreamsNotDeduped(t *testing.T) {
	cfg := testConfig(1_000)
	if _, ok := Key(cfg); !ok {
		t.Fatal("plain config must be keyable")
	}
	cfg.Apps[0].Streams = make([]workload.Stream, cfg.Apps[0].Threads)
	if _, ok := Key(cfg); ok {
		t.Fatal("config with live streams must not be keyable")
	}
}

func TestKeyDistinguishesConfigs(t *testing.T) {
	a := testConfig(1_000)
	b := testConfig(1_000)
	b.Seed = 2
	c := testConfig(1_000)
	c.Storm = &system.StormConfig{ContextSwitchInterval: 10_000, PromoteDemoteInterval: 8_000, Pages: 64}
	ka, _ := Key(a)
	kb, _ := Key(b)
	kc, _ := Key(c)
	if ka == kb || ka == kc || kb == kc {
		t.Fatal("distinct configs collided")
	}
	ka2, _ := Key(testConfig(1_000))
	if ka != ka2 {
		t.Fatal("equal configs produced different keys")
	}
}

// panicStream is an address stream whose first batch panics.
type panicStream struct{}

func (panicStream) NextBatch([]vm.VirtAddr) { panic("stream exploded") }

// TestRunPanicBecomesError: a run that panics completes with an error
// naming the config and the panic value, and the pool it ran on still
// serves the next submission.
func TestRunPanicBecomesError(t *testing.T) {
	r := New(1)
	bad := testConfig(1_000)
	bad.Apps[0].Streams = make([]workload.Stream, bad.Apps[0].Threads)
	for i := range bad.Apps[0].Streams {
		bad.Apps[0].Streams[i] = panicStream{}
	}
	_, err := r.Submit(bad).Result()
	if err == nil || !strings.Contains(err.Error(), "unkeyed") || !strings.Contains(err.Error(), "stream exploded") {
		t.Fatalf("panicking run returned %v, want an error naming unkeyed and the panic value", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Submit(testConfig(1_000)).Result()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after a panic failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pool did not run the next config after a panic")
	}
}
