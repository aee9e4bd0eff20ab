package runner

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"nocstar/internal/system"
	"nocstar/internal/workload"
)

func smallCfg(seed int64) system.Config {
	return system.Config{
		Org:   system.Nocstar,
		Cores: 4,
		Apps: []system.App{{
			Spec: workload.Spec{
				Name:           "runner-ctx",
				FootprintPages: 256,
				MemRefPerInstr: 0.3,
				BaseCPI:        1.2,
			},
			Threads:     4,
			HammerSlice: system.HammerNone,
		}},
		InstrPerThread: 2_000,
		Seed:           seed,
	}
}

// TestSubmitContextCancel cancels an effectively endless run submitted
// through the pool's memo and checks the future resolves promptly with
// the typed error and is not memoized.
func TestSubmitContextCancel(t *testing.T) {
	cfg := smallCfg(1)
	cfg.InstrPerThread = 1 << 40
	r := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	fut := r.SubmitCachedContext(ctx, cfg)
	time.Sleep(50 * time.Millisecond)
	cancel()

	type outcome struct {
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := fut.Result()
		done <- outcome{err}
	}()
	select {
	case o := <-done:
		if !errors.Is(o.err, system.ErrCanceled) {
			t.Fatalf("want system.ErrCanceled, got %v", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled run did not resolve within 30s")
	}

	// A canceled run must not poison the map of calls: resubmitting the
	// same config must run for real, not return the memoized error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	fut2 := r.SubmitCachedContext(ctx2, cfg)
	cancel2()
	if _, err := fut2.Result(); !errors.Is(err, system.ErrCanceled) {
		t.Fatalf("resubmission after cancel: want ErrCanceled, got %v", err)
	}
	if p := r.Progress(); p.Submitted != 2 || p.Deduped != 0 {
		t.Fatalf("resubmission joined the canceled run: %+v", p)
	}
}

// TestSubmitDeadOnArrival pins that a submission whose context is
// already canceled resolves immediately with the typed error, never
// registers an in-flight call (a live identical submission must not
// join it and inherit the cancellation), and never consumes a worker
// slot or a Submitted count.
func TestSubmitDeadOnArrival(t *testing.T) {
	cfg := smallCfg(9)
	r := New(1)
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	fut := r.SubmitCachedContext(dead, cfg)
	if _, err := fut.Result(); !errors.Is(err, system.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if p := r.Progress(); p.Submitted != 0 {
		t.Fatalf("dead submission was scheduled: %+v", p)
	}

	// An identical live submission starts fresh instead of joining the
	// dead one.
	res, err := r.SubmitCachedContext(context.Background(), cfg).Result()
	if err != nil {
		t.Fatalf("live resubmission failed: %v", err)
	}
	if res.MemRefs == 0 {
		t.Fatal("live resubmission produced an empty result")
	}
	if p := r.Progress(); p.Submitted != 1 || p.Deduped != 0 {
		t.Fatalf("want 1 fresh execution and 0 dedups, got %+v", p)
	}

	// A deadline that already passed maps to the deadline sentinel.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := r.SubmitCachedContext(expired, cfg).Result(); !errors.Is(err, system.ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
}

// TestKeyCanonical pins that the dedup key is the canonical encoding:
// defaulted and explicitly-spelled configs share one key, so concurrent
// submissions of either form singleflight to one execution.
func TestKeyCanonical(t *testing.T) {
	minimal := smallCfg(1)
	explicit := minimal
	explicit.SMT = 1
	explicit.L1Scale = 1
	explicit.HPCmax = 16

	ka, oka := Key(minimal)
	kb, okb := Key(explicit)
	if !oka || !okb {
		t.Fatal("valid configs not keyed")
	}
	if ka != kb {
		t.Fatalf("defaulted and explicit configs key differently:\n%s\n%s", ka, kb)
	}

	r := New(2)
	fa := r.Submit(minimal)
	fb := r.SubmitCachedContext(context.Background(), explicit)
	ra := fa.Wait()
	rb := fb.Wait()
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("deduped submissions returned different results")
	}
	p := r.Progress()
	if p.Submitted != 1 || p.Deduped != 1 {
		t.Fatalf("want 1 execution + 1 dedup, got %+v", p)
	}
}

// TestKeyRejectsLiveState: configs with injected streams (or a checker)
// have no key and every submission runs independently.
func TestKeyRejectsLiveState(t *testing.T) {
	cfg := smallCfg(1)
	cfg.Apps[0].Streams = make([]workload.Stream, 4)
	if _, ok := Key(cfg); ok {
		t.Fatal("config with live streams got a dedup key")
	}
}
