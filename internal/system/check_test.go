package system

import (
	"testing"

	"nocstar/internal/check"
	"nocstar/internal/noc"
	"nocstar/internal/workload"
)

// checkedConfig is smallConfig with a fresh invariant checker attached.
func checkedConfig(org Org) Config {
	cfg := smallConfig(org)
	cfg.Check = check.New()
	return cfg
}

// TestCheckedRunAllOrgs runs every organization — covering all four
// Table III interconnect variants (mesh and SMART monolithic, mesh
// distributed, NOCSTAR) plus the forced-latency monolithic bank, the
// baselines and the ideals — under the shadow oracle, once per walk
// policy, and asserts zero violations, real checking coverage, and that
// attaching the checker does not perturb the simulated timing.
func TestCheckedRunAllOrgs(t *testing.T) {
	for _, policy := range []WalkPolicy{WalkAtRequester, WalkAtRemote} {
		for _, org := range []Org{Private, MonolithicMesh, MonolithicSMART, MonolithicFixed,
			DistributedMesh, Nocstar, NocstarIdeal, IdealShared} {
			plainCfg := smallConfig(org)
			plainCfg.Policy = policy
			if org == MonolithicFixed {
				plainCfg.FixedAccessLatency = 16
			}
			cfg := plainCfg
			cfg.Check = check.New()
			r := mustRun(t, cfg)
			ck := cfg.Check
			if !ck.Ok() {
				t.Fatalf("%v/%v: %v (%d more dropped)", org, policy, ck.Err(), ck.Dropped())
			}
			st := ck.Stats()
			if st.Translations == 0 || st.Walks == 0 || st.Inserts == 0 ||
				st.Events == 0 || st.Ports == 0 {
				t.Fatalf("%v/%v: oracle checked nothing: %+v", org, policy, st)
			}
			if org == Nocstar && st.Grants == 0 {
				t.Fatalf("%v/%v: no circuit grants shadowed", org, policy)
			}
			plain := mustRun(t, plainCfg)
			if r.Cycles != plain.Cycles || r.L2Accesses != plain.L2Accesses {
				t.Fatalf("%v/%v: checker perturbed the run: %d/%d cycles, %d/%d accesses",
					org, policy, r.Cycles, plain.Cycles, r.L2Accesses, plain.L2Accesses)
			}
		}
	}
}

// TestCheckedDisturbedRuns turns on every invalidation source at once —
// steady shootdowns with leaders, the TLB storm, THP, prefetching — and
// asserts the stale-serve oracle and the probe-after-invalidate
// assertions stay clean.
func TestCheckedDisturbedRuns(t *testing.T) {
	for _, org := range []Org{Private, MonolithicMesh, Nocstar} {
		cfg := checkedConfig(org)
		cfg.ShootdownInterval = 2000
		cfg.InvLeaders = 2
		cfg.THP = true
		cfg.PrefetchDegree = 2
		cfg.Storm = &StormConfig{
			ContextSwitchInterval: 20_000,
			PromoteDemoteInterval: 3_000,
			Pages:                 4096,
		}
		if org == Nocstar {
			cfg.Acquire = noc.RoundTripAcquire
		}
		mustRun(t, cfg)
		ck := cfg.Check
		if !ck.Ok() {
			t.Fatalf("%v disturbed: %v (%d more dropped)", org, ck.Err(), ck.Dropped())
		}
		if st := ck.Stats(); st.Invalidations == 0 {
			t.Fatalf("%v disturbed: no invalidations recorded: %+v", org, st)
		}
	}
}

// TestCheckedShootdownReachesHammeredSlice: an app with HammerSlice >= 0
// inserts its translations into its hammered slice, not into each
// address's home slice, so a shootdown of one of its pages must scrub and
// charge that slice. Delivered to the home slice, the hammered slice kept
// the stale entry and served it after the invalidation.
func TestCheckedShootdownReachesHammeredSlice(t *testing.T) {
	spec, _ := workload.ByName("canneal")
	cfg := Config{
		Org:               Nocstar,
		Cores:             8,
		Apps:              []App{{Spec: spec, Threads: 8, HammerSlice: 3}},
		InstrPerThread:    20_000,
		Seed:              1,
		ShootdownInterval: 1000,
		Check:             check.New(),
	}
	r := mustRun(t, cfg)
	if !cfg.Check.Ok() {
		t.Fatalf("%v (%d more dropped)", cfg.Check.Err(), cfg.Check.Dropped())
	}
	if r.Shootdowns == 0 || cfg.Check.Stats().Invalidations == 0 {
		t.Fatalf("no shootdowns delivered: %d, %+v", r.Shootdowns, cfg.Check.Stats())
	}
}

// legacyReleaseConfig is a round-trip NOCSTAR run whose releases arrive
// late: the hammered slice's port backlog (and the storm's port charges)
// push lookups far past the conservative hold estimate, so by the time a
// holder releases, its links have expired and been re-granted — the
// foreign-hold situation the PR 3 clobber corrupted.
func legacyReleaseConfig() Config {
	cfg := Config{
		Org:     Nocstar,
		Cores:   8,
		Acquire: noc.RoundTripAcquire,
		Apps: []App{
			{Spec: smallSpec(), Threads: 1, HammerSlice: HammerNone},
			{Spec: workload.Uniform("hammer", 4000), Threads: 7, HammerSlice: 7},
		},
		InstrPerThread: 20_000,
		Seed:           3,
		Storm: &StormConfig{
			ContextSwitchInterval: 20_000,
			PromoteDemoteInterval: 3_000,
			Pages:                 4096,
		},
	}
	cfg.Check = check.New()
	return cfg
}

// TestCheckerCatchesLegacyReleaseInSystem reintroduces the PR 3
// unconditional link rewind inside a full round-trip NOCSTAR run: the
// circuit shadow must flag the clobbered reservations and the run must
// fail with the checker's error. The control run below pins that the
// same traffic is clean with the fixed release — the violations come
// from the reintroduced bug, not the workload.
func TestCheckerCatchesLegacyReleaseInSystem(t *testing.T) {
	cfg := legacyReleaseConfig()
	if _, err := Run(cfg); err != nil || !cfg.Check.Ok() {
		t.Fatalf("control run with fixed release not clean: %v", cfg.Check.Err())
	}
	if cfg.Check.Stats().Releases == 0 {
		t.Fatal("control run exercised no releases")
	}

	cfg = legacyReleaseConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.fabric.SetLegacyReleaseForTest(true)
	if _, err := s.run(); err == nil || cfg.Check.Ok() {
		t.Fatal("legacy unconditional release escaped the circuit shadow in a full run")
	}
}

// FuzzCheckedSystem runs small randomized machine configurations with
// the shadow oracle attached: whatever the fuzzer combines — org, walk
// policy, acquisition mode, SMT, THP, prefetching, shootdowns, the
// storm — the run must complete with zero invariant violations.
func FuzzCheckedSystem(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(3))   // private baseline, quiet
	f.Add(uint8(1), uint8(3), int64(7))   // monolithic mesh, shootdowns + storm
	f.Add(uint8(2), uint8(12), int64(1))  // monolithic SMART, THP + prefetch
	f.Add(uint8(3), uint8(33), int64(5))  // distributed mesh, shootdowns + remote walks
	f.Add(uint8(4), uint8(19), int64(9))  // nocstar, round-trip + shootdowns + storm
	f.Add(uint8(4), uint8(64), int64(2))  // nocstar, SMT
	f.Add(uint8(5), uint8(2), int64(11))  // nocstar ideal, storm
	f.Add(uint8(6), uint8(15), int64(13)) // ideal shared, everything at once
	f.Fuzz(func(t *testing.T, orgSel, knobs uint8, seed int64) {
		orgs := []Org{Private, MonolithicMesh, MonolithicSMART,
			DistributedMesh, Nocstar, NocstarIdeal, IdealShared}
		cfg := smallConfig(orgs[int(orgSel)%len(orgs)])
		cfg.InstrPerThread = 5_000
		cfg.Seed = seed
		if knobs&1 != 0 {
			cfg.ShootdownInterval = 1500
			cfg.InvLeaders = 2
		}
		if knobs&2 != 0 {
			cfg.Storm = &StormConfig{
				ContextSwitchInterval: 5_000,
				PromoteDemoteInterval: 2_000,
				Pages:                 2048,
			}
		}
		if knobs&4 != 0 {
			cfg.THP = true
		}
		if knobs&8 != 0 {
			cfg.PrefetchDegree = 2
		}
		if knobs&16 != 0 {
			cfg.Acquire = noc.RoundTripAcquire
		}
		if knobs&32 != 0 {
			cfg.Policy = WalkAtRemote
		}
		if knobs&64 != 0 {
			cfg.SMT = 2
			cfg.Apps[0].Threads = 16
		}
		cfg.Check = check.New()
		if _, err := Run(cfg); err != nil {
			t.Fatalf("checked run failed: %v", err)
		}
		if !cfg.Check.Ok() {
			t.Fatal(cfg.Check.Err())
		}
	})
}
