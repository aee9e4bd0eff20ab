package system

import (
	"encoding/json"
	"testing"

	"nocstar/internal/engine"
	"nocstar/internal/noc"
	"nocstar/internal/ptw"
	"nocstar/internal/trace"
	"nocstar/internal/vm"
	"nocstar/internal/workload"
)

// smallSpec is a fast workload for unit tests.
func smallSpec() workload.Spec {
	return workload.Spec{
		Name:           "unit",
		FootprintPages: 6000,
		SharedFrac:     0.9,
		HotFrac:        0.15,
		HotProb:        0.9,
		ZipfTheta:      0.5,
		RepeatProb:     0.85,
		MemRefPerInstr: 0.33,
		BaseCPI:        1.0,
		SuperpageFrac:  0.5,
	}
}

func smallConfig(org Org) Config {
	return Config{
		Org:            org,
		Cores:          8,
		Apps:           []App{{Spec: smallSpec(), Threads: 8, HammerSlice: HammerNone}},
		InstrPerThread: 20_000,
		Seed:           3,
	}
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunAllOrgs(t *testing.T) {
	for _, org := range []Org{Private, MonolithicMesh, MonolithicSMART,
		DistributedMesh, Nocstar, NocstarIdeal, IdealShared} {
		r := mustRun(t, smallConfig(org))
		if r.Cycles == 0 || r.Instructions != 8*20_000 {
			t.Fatalf("%v: cycles=%d instr=%d", org, r.Cycles, r.Instructions)
		}
		if r.L2Accesses == 0 || r.L2Accesses != r.L2Hits+r.L2Misses {
			t.Fatalf("%v: accesses=%d hits=%d misses=%d", org, r.L2Accesses, r.L2Hits, r.L2Misses)
		}
		if r.L2Misses != r.Walks {
			t.Fatalf("%v: misses %d != walks %d", org, r.L2Misses, r.Walks)
		}
		if r.L1MissRate() <= 0 || r.L1MissRate() >= 1 {
			t.Fatalf("%v: L1 miss rate %v out of range", org, r.L1MissRate())
		}
	}
}

func TestMonolithicFixedRequiresLatency(t *testing.T) {
	cfg := smallConfig(MonolithicFixed)
	if _, err := Run(cfg); err == nil {
		t.Fatal("MonolithicFixed without latency accepted")
	}
	cfg.FixedAccessLatency = 16
	mustRun(t, cfg)
}

func TestDeterministicRuns(t *testing.T) {
	a := mustRun(t, smallConfig(Nocstar))
	b := mustRun(t, smallConfig(Nocstar))
	if a.Cycles != b.Cycles || a.L2Misses != b.L2Misses || a.Noc.Messages != b.Noc.Messages {
		t.Fatalf("runs with identical seeds diverged: %+v vs %+v", a.Cycles, b.Cycles)
	}
	c := smallConfig(Nocstar)
	c.Seed = 99
	other := mustRun(t, c)
	if other.Cycles == a.Cycles && other.L2Accesses == a.L2Accesses {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestSharedEliminatesMisses(t *testing.T) {
	priv := mustRun(t, smallConfig(Private))
	shared := mustRun(t, smallConfig(Nocstar))
	elim := shared.MissesEliminatedVs(priv)
	if elim <= 0.2 {
		t.Fatalf("shared TLB eliminated only %.2f of private misses", elim)
	}
}

func TestOrgOrdering(t *testing.T) {
	// The paper's headline ordering at a fixed seed: NOCSTAR beats the
	// distributed mesh, which beats the monolithic mesh; NOCSTAR is close
	// to the zero-interconnect ideal.
	cfg := smallConfig(Private)
	cfg.Cores = 16
	cfg.Apps[0].Threads = 16
	cfg.InstrPerThread = 60_000
	priv := mustRun(t, cfg)
	speedup := func(org Org) float64 {
		c := cfg
		c.Org = org
		return mustRun(t, c).SpeedupOver(priv)
	}
	mono := speedup(MonolithicMesh)
	dist := speedup(DistributedMesh)
	ns := speedup(Nocstar)
	ideal := speedup(IdealShared)
	if !(mono < dist && dist < ns && ns <= ideal*1.001) {
		t.Fatalf("ordering violated: mono=%.3f dist=%.3f nocstar=%.3f ideal=%.3f",
			mono, dist, ns, ideal)
	}
	if ns < 0.9*ideal {
		t.Fatalf("NOCSTAR %.3f not within 90%% of ideal %.3f", ns, ideal)
	}
}

func TestNocstarLatencyNearSingleCycle(t *testing.T) {
	r := mustRun(t, smallConfig(Nocstar))
	if r.Noc.Messages == 0 {
		t.Fatal("no fabric messages")
	}
	if avg := r.Noc.AvgSetupCycles(); avg > 3 {
		t.Fatalf("average setup %.2f cycles, paper reports 1-3", avg)
	}
	if frac := r.Noc.NoContentionFraction(); frac < 0.5 {
		t.Fatalf("only %.2f of messages contention-free", frac)
	}
}

func TestLocalSliceFraction(t *testing.T) {
	r := mustRun(t, smallConfig(Nocstar))
	frac := float64(r.LocalSlice) / float64(r.L2Accesses)
	// 8 slices: ~1/8 of accesses are local.
	if frac < 0.04 || frac > 0.30 {
		t.Fatalf("local slice fraction %.3f, want ~1/8", frac)
	}
}

func TestTHPReducesWalkLevels(t *testing.T) {
	cfg := smallConfig(Private)
	cfg.THP = true
	thp := mustRun(t, cfg)
	// Superpage-backed pages must appear: average walk must be cheaper
	// than the pure-4K run and 2M mappings must exist.
	flat := mustRun(t, smallConfig(Private))
	if thp.MPKI() >= flat.MPKI() {
		t.Fatalf("THP did not reduce MPKI: %.2f vs %.2f", thp.MPKI(), flat.MPKI())
	}
}

func TestSMTSharesL1(t *testing.T) {
	cfg := smallConfig(Private)
	cfg.SMT = 2
	cfg.Apps[0].Threads = 16 // 2 threads per core
	r := mustRun(t, cfg)
	solo := mustRun(t, smallConfig(Private))
	// Twice the threads on the same L1 TLBs: higher miss rate.
	if r.L1MissRate() <= solo.L1MissRate() {
		t.Fatalf("SMT did not increase L1 TLB pressure: %.4f vs %.4f",
			r.L1MissRate(), solo.L1MissRate())
	}
}

func TestSMTOverSubscriptionRejected(t *testing.T) {
	cfg := smallConfig(Private)
	cfg.Apps[0].Threads = 9 // 9 threads, 8 cores, SMT 1
	if _, err := Run(cfg); err == nil {
		t.Fatal("oversubscription accepted")
	}
}

func TestPrefetchingInsertsNeighbours(t *testing.T) {
	cfg := smallConfig(Nocstar)
	cfg.PrefetchDegree = 2
	r := mustRun(t, cfg)
	if r.Prefetches == 0 {
		t.Fatal("no prefetches with degree 2")
	}
	base := mustRun(t, smallConfig(Nocstar))
	if r.MPKI() >= base.MPKI() {
		t.Fatalf("prefetching did not reduce MPKI: %.3f vs %.3f", r.MPKI(), base.MPKI())
	}
}

// TestPrefetchAtAddressSpaceEdges is the regression pin for prefetching
// past either end of the address space: a replayed page at VPN 0 or at
// vm.VPNLimit-1 with prefetch degree 1 once wrapped its neighbour below
// page 0 or past the TLB keys' VPN field and panicked the run. A
// skipped neighbour is not mapped: the page table ends up holding the
// replayed pages plus the in-range neighbours of the walked ones, and
// nothing else. (A page prefetched before its first access hits in the
// L2 TLB and is never walked.)
func TestPrefetchAtAddressSpaceEdges(t *testing.T) {
	spec, _ := workload.ByName("canneal")
	for _, tc := range []struct {
		pages  []uint64
		mapped uint64
	}{
		// Walks of 0 and 2 map 0..3; -1 is skipped.
		{[]uint64{0, 1, 2}, 4},
		// Walks of 1 and VPNLimit-1 map 0..2 and VPNLimit-2..VPNLimit-1;
		// VPNLimit is skipped.
		{[]uint64{1, 2, vm.VPNLimit - 1}, 5},
	} {
		tr := trace.Trace{Threads: [][]uint64{tc.pages, tc.pages}}
		app := App{Spec: spec, Threads: 2, HammerSlice: HammerNone}
		for i := range tr.Threads {
			r, err := tr.NewReplayer(i)
			if err != nil {
				t.Fatal(err)
			}
			app.Streams = append(app.Streams, r)
		}
		s, err := New(Config{Org: Nocstar, Cores: 2, Apps: []App{app},
			PrefetchDegree: 1, InstrPerThread: 2_000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.run()
		if err != nil {
			t.Fatalf("pages %v: %v", tc.pages, err)
		}
		if r.Prefetches == 0 {
			t.Fatalf("pages %v: no in-range neighbour was prefetched", tc.pages)
		}
		if got := s.apps[0].as.PT.MappedCount(vm.Page4K); got != tc.mapped {
			t.Fatalf("pages %v: %d pages mapped, want %d", tc.pages, got, tc.mapped)
		}
	}
}

func TestFixedPTWLatency(t *testing.T) {
	cfg := smallConfig(Private)
	cfg.PTW = ptw.Config{Mode: ptw.Fixed, FixedLatency: 40}
	r := mustRun(t, cfg)
	if got := r.PTW.AvgCycles(); got != 40 {
		t.Fatalf("fixed PTW avg = %v, want 40", got)
	}
	cfg.PTW = ptw.Config{Mode: ptw.Fixed} // missing latency
	if _, err := Run(cfg); err == nil {
		t.Fatal("fixed PTW without latency accepted")
	}
}

func TestWalkPolicies(t *testing.T) {
	req := smallConfig(Nocstar)
	req.Policy = WalkAtRequester
	rem := smallConfig(Nocstar)
	rem.Policy = WalkAtRemote
	a := mustRun(t, req)
	b := mustRun(t, rem)
	if a.Walks == 0 || b.Walks == 0 {
		t.Fatal("no walks under a policy")
	}
	// The paper finds request-core walks slightly better on average.
	if float64(a.Cycles) > 1.1*float64(b.Cycles) {
		t.Fatalf("request-core policy much worse than remote: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestAcquireModes(t *testing.T) {
	oneWay := smallConfig(Nocstar)
	oneWay.Acquire = noc.OneWayAcquire
	roundTrip := smallConfig(Nocstar)
	roundTrip.Acquire = noc.RoundTripAcquire
	a := mustRun(t, oneWay)
	b := mustRun(t, roundTrip)
	// Fig. 16 left: one-way acquisition performs at least as well.
	if a.Cycles > b.Cycles {
		t.Fatalf("one-way acquire slower than round-trip: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestMultiprogrammedApps(t *testing.T) {
	s1 := smallSpec()
	s2 := smallSpec()
	s2.Name = "unit2"
	s2.FootprintPages = 3000
	cfg := Config{
		Org:            Nocstar,
		Cores:          8,
		Apps:           []App{{Spec: s1, Threads: 4, HammerSlice: HammerNone}, {Spec: s2, Threads: 4, HammerSlice: HammerNone}},
		InstrPerThread: 20_000,
		Seed:           3,
	}
	r := mustRun(t, cfg)
	if len(r.Apps) != 2 {
		t.Fatalf("apps = %d", len(r.Apps))
	}
	for _, a := range r.Apps {
		if a.IPC <= 0 || a.Instructions != 4*20_000 {
			t.Fatalf("bad app result %+v", a)
		}
	}
	if r.WorstAppSpeedupOver(r) != 1 {
		t.Fatal("self worst-app speedup != 1")
	}
}

func TestShootdownTraffic(t *testing.T) {
	cfg := smallConfig(Nocstar)
	cfg.ShootdownInterval = 2000
	cfg.InvLeaders = 2
	r := mustRun(t, cfg)
	if r.Shootdowns == 0 {
		t.Fatal("no shootdowns delivered")
	}
	quiet := mustRun(t, smallConfig(Nocstar))
	if r.Cycles < quiet.Cycles {
		t.Fatal("shootdown traffic accelerated the run (impossible)")
	}
}

func TestStormDegradesPerformance(t *testing.T) {
	cfg := smallConfig(Nocstar)
	cfg.Storm = &StormConfig{
		ContextSwitchInterval: 20_000,
		PromoteDemoteInterval: 3_000,
		Pages:                 4096,
	}
	storm := mustRun(t, cfg)
	quiet := mustRun(t, smallConfig(Nocstar))
	if storm.Cycles <= quiet.Cycles {
		t.Fatalf("storm did not degrade: %d vs %d", storm.Cycles, quiet.Cycles)
	}
	if storm.Shootdowns == 0 {
		t.Fatal("storm produced no invalidations")
	}
}

func TestSliceHammer(t *testing.T) {
	victim := smallSpec()
	hammer := workload.Uniform("hammer", 4000)
	cfg := Config{
		Org:   Nocstar,
		Cores: 8,
		Apps: []App{
			{Spec: victim, Threads: 1, HammerSlice: HammerNone},
			{Spec: hammer, Threads: 7, HammerSlice: 7},
		},
		InstrPerThread: 20_000,
		Seed:           3,
	}
	r := mustRun(t, cfg)
	if r.SliceConc.Total == 0 {
		t.Fatal("no per-slice concurrency recorded")
	}
	// The hammered slice sees heavy concurrency: the top buckets of the
	// per-slice histogram must be populated.
	f := r.SliceConc.Fractions()
	if f[0] > 0.9 {
		t.Fatalf("hammered run shows almost no slice concurrency: %v", f)
	}
}

func TestConcurrencyHistogramPopulated(t *testing.T) {
	r := mustRun(t, smallConfig(Nocstar))
	if r.Conc.Total != r.L2Accesses {
		t.Fatalf("concurrency observations %d != accesses %d", r.Conc.Total, r.L2Accesses)
	}
	if r.SliceConc.Total != r.L2Accesses {
		t.Fatalf("slice concurrency observations %d != accesses %d", r.SliceConc.Total, r.L2Accesses)
	}

	// Both histograms survive a JSON round trip, as every Result served
	// over HTTP or read back from the store does.
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Conc != r.Conc || back.SliceConc != r.SliceConc {
		t.Fatalf("histograms lost in JSON: conc %+v -> %+v, slice %+v -> %+v",
			r.Conc, back.Conc, r.SliceConc, back.SliceConc)
	}
}

func TestEnergyAccounting(t *testing.T) {
	priv := mustRun(t, smallConfig(Private))
	ns := mustRun(t, smallConfig(Nocstar))
	if priv.Energy.TotalPJ() <= 0 || ns.Energy.TotalPJ() <= 0 {
		t.Fatal("zero energy recorded")
	}
	if priv.Energy.NetworkPJ != 0 {
		t.Fatal("private org charged network energy")
	}
	if ns.Energy.NetworkPJ == 0 {
		t.Fatal("NOCSTAR org charged no network energy")
	}
	// Shared TLB saves walk energy (fewer walks -> fewer LLC/mem refs).
	if ns.Energy.WalkPJ >= priv.Energy.WalkPJ {
		t.Fatalf("shared TLB did not save walk energy: %.0f vs %.0f",
			ns.Energy.WalkPJ, priv.Energy.WalkPJ)
	}
}

func TestL1ScaleChangesPressure(t *testing.T) {
	small := smallConfig(Private)
	small.L1Scale = 0.5
	big := smallConfig(Private)
	big.L1Scale = 1.5
	a := mustRun(t, small)
	b := mustRun(t, big)
	if a.L1MissRate() <= b.L1MissRate() {
		t.Fatalf("halved L1 TLBs not worse than 1.5x: %.4f vs %.4f",
			a.L1MissRate(), b.L1MissRate())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Cores: 0, Apps: []App{{Spec: smallSpec(), Threads: 1}}},
		{Cores: 4},
		{Cores: 4, Apps: []App{{Spec: smallSpec(), Threads: 0}}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestOrgStrings(t *testing.T) {
	for _, org := range []Org{Private, MonolithicMesh, MonolithicSMART, MonolithicFixed,
		DistributedMesh, Nocstar, NocstarIdeal, IdealShared} {
		if org.String() == "" || org.String()[0] == 'O' {
			t.Fatalf("missing String for %d", int(org))
		}
	}
	if Private.IsShared() || !Nocstar.IsShared() {
		t.Fatal("IsShared wrong")
	}
	if WalkAtRequester.String() != "request" || WalkAtRemote.String() != "remote" {
		t.Fatal("WalkPolicy strings wrong")
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	var r Result
	if r.L1MissRate() != 0 || r.L2MissRate() != 0 || r.MPKI() != 0 || r.SpeedupOver(r) != 0 {
		t.Fatal("zero result not zero metrics")
	}
	r = Result{Cycles: 100, Instructions: 1000, MemRefs: 500, L1Misses: 50,
		L2Accesses: 50, L2Misses: 10, IPC: 10}
	if r.L1MissRate() != 0.1 || r.L2MissRate() != 0.2 || r.MPKI() != 10 {
		t.Fatalf("metrics wrong: %v %v %v", r.L1MissRate(), r.L2MissRate(), r.MPKI())
	}
	base := Result{Cycles: 200, IPC: 5, Apps: []AppResult{{IPC: 2}}}
	r.Apps = []AppResult{{IPC: 3}}
	if r.SpeedupOver(base) != 2 || r.ThroughputSpeedupOver(base) != 2 || r.WorstAppSpeedupOver(base) != 1.5 {
		t.Fatal("speedup metrics wrong")
	}
}

// engineRand builds a deterministic stream seed helper for tests.
func engineRand(seed int64) *engine.Rand { return engine.NewRand(seed) }

// TestBankNodesWithinCores is the regression pin for the padded-grid
// bank-placement bug: a core count whose grid pads spare tiles (5 -> 3x2,
// 7 -> 3x3, 11 -> 4x3) used to place monolithic banks on tile IDs at or
// beyond Cores, and the first remote walk indexed s.cores out of range.
func TestBankNodesWithinCores(t *testing.T) {
	for _, cores := range []int{5, 7, 11} {
		cfg := smallConfig(MonolithicMesh)
		cfg.Cores = cores
		cfg.Apps[0].Threads = cores
		cfg.Policy = WalkAtRemote
		cfg.InstrPerThread = 5_000

		norm, err := cfg.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(norm)
		if err != nil {
			t.Fatal(err)
		}
		for b, p := range s.ports {
			if int(p.node) >= cores {
				t.Fatalf("cores=%d: bank %d on padded tile %d", cores, b, p.node)
			}
		}
		// The full run exercises the walk path that panicked pre-fix.
		r := mustRun(t, cfg)
		if r.Cycles == 0 || r.Instructions != uint64(cores)*5_000 {
			t.Fatalf("cores=%d: degenerate run %+v", cores, r)
		}
	}
}
