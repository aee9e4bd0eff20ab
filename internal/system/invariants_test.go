package system

import (
	"testing"
	"testing/quick"

	"nocstar/internal/noc"
	"nocstar/internal/vm"
	"nocstar/internal/workload"
)

// These tests pin down cross-module invariants of the assembled machine
// rather than individual component behaviour.

func TestSliceMappingStable(t *testing.T) {
	s, err := New(smallConfig(Nocstar))
	if err != nil {
		t.Fatal(err)
	}
	// The home slice of an address never changes and covers all slices.
	seen := map[int]bool{}
	f := func(vaRaw uint64) bool {
		va := vm.VirtAddr(vaRaw)
		a := s.homeSlice(va)
		b := s.homeSlice(va)
		if a != b || a < 0 || a >= s.cfg.Cores {
			return false
		}
		seen[a] = true
		// All addresses in the same 2MB extent share a home slice, so a
		// requester needs no page-size information.
		return s.homeSlice(va.PageBase(vm.Page2M)) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if len(seen) < s.cfg.Cores/2 {
		t.Fatalf("slice mapping only reached %d of %d slices", len(seen), s.cfg.Cores)
	}
}

func TestBankMappingInRange(t *testing.T) {
	cfg := smallConfig(MonolithicMesh)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(vaRaw uint64) bool {
		b := s.bankFor(vm.VirtAddr(vaRaw))
		return b >= 0 && b < len(s.ports)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInstructionConservation(t *testing.T) {
	// Every organization retires exactly the configured instructions.
	for _, org := range []Org{Private, MonolithicSMART, DistributedMesh, Nocstar} {
		cfg := smallConfig(org)
		cfg.InstrPerThread = 7_777
		r := mustRun(t, cfg)
		want := uint64(cfg.Cores) * 7_777
		if r.Instructions != want {
			t.Fatalf("%v: retired %d, want %d", org, r.Instructions, want)
		}
	}
}

func TestStallCyclesBounded(t *testing.T) {
	// Translation stalls can never exceed total thread-cycles.
	r := mustRun(t, smallConfig(Nocstar))
	if r.StallCycles > r.Cycles*uint64(8) {
		t.Fatalf("stalls %d exceed aggregate cycles %d x 8 threads", r.StallCycles, r.Cycles)
	}
	if r.StallCycles == 0 {
		t.Fatal("no translation stalls at all (model degenerate)")
	}
}

func TestHitsInsertIntoL1(t *testing.T) {
	// Mostly-inclusive hierarchy: after a shared-L2 hit the L1 holds the
	// translation, so immediate re-access of the same page is an L1 hit.
	// Statistically: the L1 hit rate must far exceed the repeat
	// probability alone would suggest misses.
	r := mustRun(t, smallConfig(Nocstar))
	if r.L1MissRate() > 0.2 {
		t.Fatalf("L1 miss rate %.3f suggests fills are not reaching the L1", r.L1MissRate())
	}
}

func TestSharedCapacityScalesHitRate(t *testing.T) {
	// The same workload on more cores has a bigger shared TLB and a
	// lower shared miss ratio (Fig. 2's mechanism). Per-thread work is
	// held constant.
	spec := smallSpec()
	miss := func(cores int) float64 {
		cfg := Config{
			Org:            IdealShared,
			Cores:          cores,
			Apps:           []App{{Spec: spec, Threads: cores, HammerSlice: HammerNone}},
			InstrPerThread: 30_000,
			Seed:           3,
		}
		return mustRun(t, cfg).L2MissRate()
	}
	small, big := miss(4), miss(16)
	if big >= small {
		t.Fatalf("shared L2 miss rate did not drop with scale: %d-core %.3f vs %.3f",
			16, big, small)
	}
}

func TestNocstarIdealNoContention(t *testing.T) {
	r := mustRun(t, smallConfig(NocstarIdeal))
	if r.Noc.NoContentionFraction() != 1 {
		t.Fatalf("ideal fabric had contention: %.3f", r.Noc.NoContentionFraction())
	}
	if r.Noc.AvgSetupCycles() != 1 {
		t.Fatalf("ideal fabric setup %.2f, want exactly 1", r.Noc.AvgSetupCycles())
	}
}

func TestAreaNormalizedSliceDefault(t *testing.T) {
	for _, tc := range []struct {
		org     Org
		entries int // per array
	}{
		{Nocstar, 920}, // Table II area normalization
		{NocstarIdeal, 920},
		{DistributedMesh, 1024},
		{Private, 1024},
		{MonolithicMesh, 8 * 1024}, // one array of the 8 cores' shares
	} {
		s, err := New(smallConfig(tc.org))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range s.arrays {
			if got := a.Config().Entries; got != tc.entries {
				t.Fatalf("%v: L2 array of %d entries, want %d", tc.org, got, tc.entries)
			}
		}
	}
}

func TestBankDefaults(t *testing.T) {
	for _, tc := range []struct{ cores, banks int }{{32, 4}, {64, 8}} {
		s, err := New(Config{Org: MonolithicMesh, Cores: tc.cores,
			Apps: []App{{Spec: smallSpec(), Threads: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.ports) != tc.banks {
			t.Fatalf("%d-core banks = %d, want %d (paper's best banking)", tc.cores, len(s.ports), tc.banks)
		}
	}
}

func TestRoundTripAcquireHoldsLinks(t *testing.T) {
	// Round-trip acquisition holds paths longer: strictly more setup
	// contention on the fabric for the same traffic.
	oneWay := smallConfig(Nocstar)
	oneWay.Acquire = noc.OneWayAcquire
	rt := smallConfig(Nocstar)
	rt.Acquire = noc.RoundTripAcquire
	a, b := mustRun(t, oneWay), mustRun(t, rt)
	if b.Noc.NoContentionFraction() > a.Noc.NoContentionFraction() {
		t.Fatalf("round-trip acquire had less contention: %.3f vs %.3f",
			b.Noc.NoContentionFraction(), a.Noc.NoContentionFraction())
	}
}

func TestWalkerHierarchySharedLLC(t *testing.T) {
	// A page walked by one core must warm the shared LLC for every other
	// core: the second core's cold walk is cheaper than the first's.
	s, err := New(smallConfig(Private))
	if err != nil {
		t.Fatal(err)
	}
	as := vm.NewAddressSpace(50)
	as.EnsureMapped(0x1234000, vm.Page4K)
	lat0, _, ok := s.cores[0].walker.Walk(0, as, 0x1234000)
	if !ok {
		t.Fatal("walk failed")
	}
	lat1, _, _ := s.cores[1].walker.Walk(1000, as, 0x1234000)
	if lat1 >= lat0 {
		t.Fatalf("shared LLC did not help the second walker: %d then %d", lat0, lat1)
	}
}

func TestUniformWorkloadRuns(t *testing.T) {
	cfg := Config{
		Org:            Nocstar,
		Cores:          4,
		Apps:           []App{{Spec: workload.Uniform("ub", 2000), Threads: 4, HammerSlice: HammerNone}},
		InstrPerThread: 10_000,
		Seed:           1,
	}
	r := mustRun(t, cfg)
	if r.L2Accesses == 0 {
		t.Fatal("uniform microbenchmark generated no L2 traffic")
	}
}

func TestGridsForPaperCoreCounts(t *testing.T) {
	for _, n := range []int{16, 32, 64, 128, 256, 512} {
		g := noc.GridFor(n)
		if g.Nodes() != n {
			t.Fatalf("%d cores tiled as %dx%d = %d nodes, want exact",
				n, g.Rows, g.Cols, g.Nodes())
		}
	}
}

func TestTraceReplayDeterministic(t *testing.T) {
	// Replaying identical streams must yield identical results, and the
	// stream count must match the thread count.
	spec := smallSpec()
	mkStreams := func() []workload.Stream {
		var out []workload.Stream
		for i := 0; i < 4; i++ {
			out = append(out, workload.NewGenerator(spec, 4, i, engineRand(int64(100+i))))
		}
		return out
	}
	mk := func() Config {
		return Config{
			Org:            Nocstar,
			Cores:          4,
			Apps:           []App{{Spec: spec, Threads: 4, HammerSlice: HammerNone, Streams: mkStreams()}},
			InstrPerThread: 15_000,
			Seed:           9,
		}
	}
	a := mustRun(t, mk())
	b := mustRun(t, mk())
	if a.Cycles != b.Cycles || a.L2Misses != b.L2Misses {
		t.Fatalf("replayed runs diverged: %d/%d vs %d/%d",
			a.Cycles, a.L2Misses, b.Cycles, b.L2Misses)
	}
	// Mismatched stream count must be rejected.
	bad := mk()
	bad.Apps[0].Streams = bad.Apps[0].Streams[:2]
	if _, err := Run(bad); err == nil {
		t.Fatal("mismatched stream count accepted")
	}
}
