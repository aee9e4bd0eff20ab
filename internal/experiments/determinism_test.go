package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"nocstar/internal/runner"
	"nocstar/internal/system"
	"nocstar/internal/trace"
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
// (cycle, seq) stream — for NOCSTAR, private, monolithic and
// distributed configurations, and their simulated Results. Any scheduling refactor that reorders even
// one pair of same-cycle events changes the hash. This is deliberately
// stricter than TestRunDeterminism, which only requires runs to agree
// with each other.
//
// The result digests date from the closure-continuation/binary-heap
// scheduler that predates the typed transaction objects and the timing
// wheel. The event hashes were re-captured when the fabric began carrying
// each arbitration round's denied requests in one retry event instead of
// one event per request (oneway 9274 -> 9268 events, remote-walk
// 9272 -> 9267): the new stream is the old one with each round's retry
// events replaced by a single batch event, and the results are unchanged.
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
		{"storm-private", stormPriv, 4631, 0x766556bff835d887, "5dd0a06fb8482c50"},
		{"storm-nocstar", stormNoc, 9241, 0xcf953875816f842c, "e0388b780bba9a65"},
	}
	for _, g := range golden {
		checkGolden(t, g.name, g.cfg, g.events, g.hash, g.result)
	}

	// The mesh rows pin the monolithic and distributed legs under both
	// walk policies, with a prefetch neighbour and steady shootdowns. No
	// registered experiment walks at the remote slice or bank of these
	// organizations. The rows were captured before the organizations'
	// separate access functions were merged into one mesh leg.
	mesh := func(org system.Org, p system.WalkPolicy) system.Config {
		c := base
		c.Org = org
		c.Policy = p
		c.PrefetchDegree = 1
		c.ShootdownInterval = 5_000
		if org == system.MonolithicFixed {
			c.FixedAccessLatency = 16
		}
		return c
	}
	meshGolden := []struct {
		name   string
		org    system.Org
		policy system.WalkPolicy
		events int
		hash   uint64
		result string
	}{
		{"mono-mesh/request", system.MonolithicMesh, system.WalkAtRequester, 3682, 0x48ed175e7daad766, "cca173d8508161ed"},
		{"mono-mesh/remote", system.MonolithicMesh, system.WalkAtRemote, 4350, 0x96aa47f35f35e176, "2ff460c77c11a3e5"},
		{"mono-SMART/remote", system.MonolithicSMART, system.WalkAtRemote, 4354, 0xf357805366de8ebc, "4b457e591fdae342"},
		{"mono-fixed/remote", system.MonolithicFixed, system.WalkAtRemote, 4350, 0x5b91bedc05e67b85, "9247217a914b41e3"},
		{"distributed/request", system.DistributedMesh, system.WalkAtRequester, 3668, 0x931ddae55365e8ab, "f40585486f539ff4"},
		{"distributed/remote", system.DistributedMesh, system.WalkAtRemote, 4289, 0xa88cbe2750304b85, "0fff35049a7666ad"},
		{"ideal/remote", system.IdealShared, system.WalkAtRemote, 4290, 0xa37d1cf47033c127, "ed17cb0c97f6bc4a"},
	}
	for _, g := range meshGolden {
		checkGolden(t, g.name, mesh(g.org, g.policy), g.events, g.hash, g.result)
	}

	// The replay row runs trace replayers instead of generators. The
	// trace holds 1000 references per thread and the run draws 1050, so
	// every stream wraps mid-run. Replayers keep a position, so each run
	// gets fresh ones. The row was captured cold before the warmup phase
	// was deleted, and held across it.
	tr := trace.Capture(spec, 16, 1000, 11)
	replay := base
	replay.Apps = []system.App{{Spec: spec, Threads: 16, HammerSlice: system.HammerNone}}
	for i := range tr.Threads {
		r, err := tr.NewReplayer(i)
		if err != nil {
			t.Fatal(err)
		}
		replay.Apps[0].Streams = append(replay.Apps[0].Streams, r)
	}
	checkGolden(t, "replay", replay, 9050, 0x3caf608b52d88f30, "a1fbec74315b0552")
}

// checkGolden runs cfg under an event-order observer and compares its
// event count, event-stream hash and result digest with the pinned ones.
func checkGolden(t *testing.T, name string, cfg system.Config, events int, hash uint64, result string) {
	t.Helper()
	var h uint64 = 14695981039346656037
	n := 0
	res, err := system.RunTraced(cfg, func(cycle, seq uint64) {
		h = fnvMix(fnvMix(h, cycle), seq)
		n++
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := resultDigest(res); d != result {
		t.Errorf("%s: simulated result changed: digest %s, want %s", name, d, result)
	}
	if n != events || h != hash {
		t.Errorf("%s: event stream changed: events=%d hash=%#x, want events=%d hash=%#x",
			name, n, h, events, hash)
	}
}

// onFreshPool runs fn with every driver submitting to a new pool, so
// each run fn submits executes there whatever the shared pool already
// memoized, and returns the new pool's counters.
func onFreshPool(fn func()) runner.Progress {
	saved := defaultPool
	r := runner.New(0)
	defaultPool = func() *runner.Runner { return r }
	defer func() { defaultPool = saved }()
	fn()
	return r.Progress()
}

// Two full drivers rendered at -j 1 and at -j 6 must produce identical
// bytes (the acceptance contract for every driver; Fig. 12 exercises the
// speedup-grid path and Fig. 16 left the focus-grid path, which between
// them cover shared baselines, in-flight dedup, and ordered joins). Each
// side runs on its own fresh pool, so both execute every run.
func TestRenderDeterministicAcrossParallelism(t *testing.T) {
	base := Options{
		Instr:      15_000,
		Seed:       1,
		Workloads:  []string{"canneal", "gups"},
		CoreCounts: []int{16, 32},
	}
	type side struct {
		fig12, fig16l, fig18 string
	}
	render := func(j int) side {
		o := base
		o.Parallelism = j
		var s side
		p := onFreshPool(func() {
			s.fig12, s.fig16l = Fig12(o).Render(), Fig16Left(o).Render()
		})
		// Fig. 12: a baseline and 4 orgs per workload at 16 cores.
		// Fig. 16 left: 2 variants per workload at 16 and 32 cores and
		// the 32-core baselines, less the variant that is Fig. 12's
		// NOCSTAR run.
		if p.Submitted != 18 {
			t.Fatalf("-j %d executed %d Fig. 12 + Fig. 16 left runs, want 18", j, p.Submitted)
		}
		o.Combos = 3
		onFreshPool(func() { s.fig18 = Fig18(o).Render() })
		return s
	}
	serial, par := render(1), render(6)
	for _, c := range []struct{ name, a, b string }{
		{"Fig12", serial.fig12, par.fig12},
		{"Fig16Left", serial.fig16l, par.fig16l},
		{"Fig18", serial.fig18, par.fig18},
	} {
		if c.a != c.b {
			t.Fatalf("%s output differs between -j 1 and -j 6:\n--- serial ---\n%s\n--- parallel ---\n%s", c.name, c.a, c.b)
		}
	}
}
