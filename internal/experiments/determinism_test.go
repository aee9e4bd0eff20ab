package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"nocstar/internal/runner"
	"nocstar/internal/system"
	"nocstar/internal/workload"
)

// The engine promises bit-for-bit reproducibility: equal configs produce
// equal Results. These tests pin that contract under the typed 4-ary
// event heap and the parallel worker pool, and require the experiment
// drivers' rendered output to be byte-identical between -j 1 and -j N.

func TestRunDeterminism(t *testing.T) {
	spec, _ := workload.ByName("graph500")
	cfg := system.Config{
		Org:            system.Nocstar,
		Cores:          32,
		Apps:           []system.App{{Spec: spec, Threads: 32, HammerSlice: system.HammerNone}},
		InstrPerThread: 10_000,
		Seed:           7,
	}
	a, err := system.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := system.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two direct runs of the same config diverged")
	}
	// The same config through a parallel pool, twice, racing against
	// unrelated runs on the same pool.
	pool := runner.New(4)
	other := cfg
	other.Seed = 8
	noise := pool.Submit(other)
	c := pool.Submit(cfg).Wait()
	d := pool.Submit(cfg).Wait()
	noise.Wait()
	if !reflect.DeepEqual(a, c) || !reflect.DeepEqual(a, d) {
		t.Fatal("pooled run diverged from direct run")
	}
}

// fnvMix folds v into the running FNV-1a-64 hash h, one byte at a time,
// little-endian.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// resultDigest fingerprints the simulated statistics of a Result: the
// same fields, in the same format, as perfbench's digest. Result.Metrics
// is left out, so observability added later does not change it.
func resultDigest(r system.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "org=%d cycles=%d instr=%d", r.Org, r.Cycles, r.Instructions)
	for _, a := range r.Apps {
		fmt.Fprintf(h, " app=%s/%d/%d", a.Name, a.Instructions, a.FinishCycle)
	}
	fmt.Fprintf(h, " refs=%d l1m=%d l2a=%d l2h=%d l2m=%d walks=%d local=%d pf=%d sd=%d stall=%d",
		r.MemRefs, r.L1Misses, r.L2Accesses, r.L2Hits, r.L2Misses, r.Walks,
		r.LocalSlice, r.Prefetches, r.Shootdowns, r.StallCycles)
	n := r.Noc
	fmt.Fprintf(h, " noc=%d/%d/%d/%d/%d/%d/%d/%d/%d", n.Messages, n.SetupAttempts, n.FirstTryGrants,
		n.TotalSetupDelay, n.TotalTraversal, n.Retries, n.Releases, n.ReleasedLinks, n.ForeignLinks)
	p := r.PTW
	fmt.Fprintf(h, " ptw=%d/%d/%d/%d/%d/%v", p.Walks, p.TotalCycles, p.QueueCycles, p.PWCHits,
		p.LeafFromLLCOrMem, p.MemRefsByLevel)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGoldenEventOrder pins the engine's total event order — the exact
// (cycle, seq) stream — for three NOCSTAR configurations, and their
// simulated Results. Any scheduling refactor that reorders even one pair
// of same-cycle events changes the hash. This is deliberately stricter
// than TestRunDeterminism, which only requires runs to agree with each
// other. The warmed row covers the inline warmup: its stream includes
// the warmup's events, its Result only the measured window.
//
// The result digests date from the closure-continuation/binary-heap
// scheduler that predates the typed transaction objects and the timing
// wheel. The event hashes were re-captured when the fabric began carrying
// each arbitration round's denied requests in one retry event instead of
// one event per request (oneway 9274 -> 9268 events, remote-walk
// 9272 -> 9267): the new stream is the old one with each round's retry
// events replaced by a single batch event, and the results are unchanged.
// The warmed row was captured later, before the warm-state checkpoint
// that duplicated the inline warmup was deleted, and held across it.
func TestGoldenEventOrder(t *testing.T) {
	spec, _ := workload.ByName("graph500")
	base := system.Config{
		Org:            system.Nocstar,
		Cores:          16,
		Apps:           []system.App{{Spec: spec, Threads: 16, HammerSlice: system.HammerNone}},
		InstrPerThread: 3_000,
		Seed:           7,
	}
	remote := base
	remote.Policy = system.WalkAtRemote
	remote.ShootdownInterval = 5_000
	warmed := base
	warmed.WarmupInstr = 3_000
	// The storm rows run the TLB-storm co-runner beside steady
	// shootdowns, so promote/demote bursts, context-switch flushes and
	// their port charges are pinned too.
	stormNoc := base
	stormNoc.THP = true
	stormNoc.ShootdownInterval = 2_000
	stormNoc.Storm = &system.StormConfig{ContextSwitchInterval: 4_000, PromoteDemoteInterval: 1_000, Pages: 4096}
	stormNoc.InvLeaders = 2
	stormPriv := stormNoc
	stormPriv.Org = system.Private
	stormPriv.InvLeaders = 0

	golden := []struct {
		name   string
		cfg    system.Config
		events int
		hash   uint64
		result string
	}{
		{"oneway", base, 9268, 0x679f199496bec998, "20b3c313343d6c53"},
		{"remote-walk", remote, 9267, 0x15b73db1ad755a55, "7c3df9905779b585"},
		{"warmed", warmed, 17492, 0xf1e192bd350ab763, "f80eedffe191b623"},
		{"storm-private", stormPriv, 4631, 0x766556bff835d887, "5dd0a06fb8482c50"},
		{"storm-nocstar", stormNoc, 9241, 0xcf953875816f842c, "e0388b780bba9a65"},
	}
	for _, g := range golden {
		var h uint64 = 14695981039346656037
		n := 0
		res, err := system.RunTraced(g.cfg, func(cycle, seq uint64) {
			h = fnvMix(fnvMix(h, cycle), seq)
			n++
		})
		if err != nil {
			t.Fatal(err)
		}
		if d := resultDigest(res); d != g.result {
			t.Errorf("%s: simulated result changed: digest %s, want %s", g.name, d, g.result)
		}
		if n != g.events || h != g.hash {
			t.Errorf("%s: event stream changed: events=%d hash=%#x, want events=%d hash=%#x",
				g.name, n, h, g.events, g.hash)
		}
	}
}

// Two full drivers rendered at -j 1 and at -j 6 must produce identical
// bytes (the acceptance contract for every driver; Fig. 12 exercises the
// speedup-grid path and Fig. 16 left the focus-grid path, which between
// them cover the baseline cache, in-flight dedup, and ordered joins).
func TestRenderDeterministicAcrossParallelism(t *testing.T) {
	base := Options{
		Instr:      15_000,
		Seed:       1,
		Workloads:  []string{"canneal", "gups"},
		CoreCounts: []int{16, 32},
	}
	serial := base
	serial.Parallelism = 1
	par := base
	par.Parallelism = 6

	if a, b := Fig12(serial).Render(), Fig12(par).Render(); a != b {
		t.Fatalf("Fig12 output differs between -j 1 and -j 6:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	if a, b := Fig16Left(serial).Render(), Fig16Left(par).Render(); a != b {
		t.Fatalf("Fig16Left output differs between -j 1 and -j 6:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	serial.Combos = 3
	par.Combos = 3
	if a, b := Fig18(serial).Render(), Fig18(par).Render(); a != b {
		t.Fatalf("Fig18 output differs between -j 1 and -j 6:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}
