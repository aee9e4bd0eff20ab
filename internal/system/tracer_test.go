package system

import (
	"reflect"
	"testing"

	"nocstar/internal/metrics"
	"nocstar/internal/noc"
	"nocstar/internal/workload"
)

// TestTracingMovesNoCycles: attaching a tracer (the nocstar-exp -trace
// path) only records; the Result is the one an untraced run produces.
// The config takes every traced path: round-trip path setups, grants and
// early releases, shared-TLB hits and misses, and walks at the remote
// slice under steady shootdowns.
func TestTracingMovesNoCycles(t *testing.T) {
	spec, _ := workload.ByName("graph500")
	cfg := Config{
		Org:               Nocstar,
		Cores:             16,
		Apps:              []App{{Spec: spec, Threads: 16, HammerSlice: HammerNone}},
		InstrPerThread:    3_000,
		Seed:              1,
		Acquire:           noc.RoundTripAcquire,
		Policy:            WalkAtRemote,
		ShootdownInterval: 5_000,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := metrics.NewTracer(0)
	traced, err := RunWithTracer(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("a traced run's Result differs from the untraced run's")
	}
	if tr.Dropped() > 0 {
		t.Fatalf("trace window filled: %d events dropped", tr.Dropped())
	}
	seen := map[uint8]int{}
	for _, ev := range tr.Events() {
		seen[ev.Kind]++
	}
	for _, k := range []uint8{metrics.TracePathSetup, metrics.TracePathGrant, metrics.TraceRelease,
		metrics.TraceL2Hit, metrics.TraceL2Miss, metrics.TraceWalk} {
		if seen[k] == 0 {
			t.Errorf("no events of trace kind %d (counts by kind: %v)", k, seen)
		}
	}
}
