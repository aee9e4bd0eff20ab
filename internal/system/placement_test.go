package system

import (
	"reflect"
	"testing"

	"nocstar/internal/noc"
	"nocstar/internal/place"
)

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
		for b, nd := range s.bankNodes {
			if int(nd) >= cores {
				t.Fatalf("cores=%d: bank %d on padded tile %d", cores, b, nd)
			}
		}
		// The full run exercises the walk path that panicked pre-fix.
		r := mustRun(t, cfg)
		if r.Cycles == 0 || r.Instructions != uint64(cores)*5_000 {
			t.Fatalf("cores=%d: degenerate run %+v", cores, r)
		}
	}
}

// topologyConfig is the base config of the fabric matrix tests: a
// 16-core distributed organization (4x4 grid, so the hybrid's cluster
// structure and the torus wrap both engage).
func topologyConfig(kind noc.TopologyKind) Config {
	cfg := smallConfig(DistributedMesh)
	cfg.Cores = 16
	cfg.Apps[0].Threads = 16
	cfg.InstrPerThread = 8_000
	cfg.Topology = kind
	return cfg
}

// TestTopologyDeterminism pins run-to-run identity across every fabric:
// for each topology, a distributed run with remote walks and periodic
// shootdowns must produce a Result deep-equal to a second run of the
// same config.
func TestTopologyDeterminism(t *testing.T) {
	for _, kind := range noc.TopologyKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := topologyConfig(kind)
			cfg.Policy = WalkAtRemote
			cfg.ShootdownInterval = 30_000
			base := mustRun(t, cfg)
			if base.Cycles == 0 || base.L2Accesses == 0 {
				t.Fatalf("degenerate run: %+v", base)
			}
			if got := mustRun(t, cfg); !reflect.DeepEqual(base, got) {
				t.Fatalf("repeated run diverges under %v", kind)
			}
		})
	}
}

// TestTopologyChangesLatency sanity-checks that the fabric actually
// flows into timing: the single-hop crossbar must finish a distributed
// run in no more cycles than the multi-hop mesh.
func TestTopologyChangesLatency(t *testing.T) {
	mesh := mustRun(t, topologyConfig(noc.TopoMesh))
	xbar := mustRun(t, topologyConfig(noc.TopoXBar))
	if xbar.Cycles > mesh.Cycles {
		t.Fatalf("crossbar run slower than mesh: %d > %d cycles", xbar.Cycles, mesh.Cycles)
	}
	if xbar.Cycles == mesh.Cycles {
		t.Fatalf("crossbar run identical to mesh (%d cycles): topology not wired into timing", xbar.Cycles)
	}
}

// TestPlacementDeterminism: for a fixed seed every optimizing strategy
// must produce the identical mapping and the identical Result on
// repeated runs (the make-placement CI smoke depends on this).
func TestPlacementDeterminism(t *testing.T) {
	for _, strat := range []place.Strategy{place.Random, place.LocalityAware, place.Annealed} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			t.Parallel()
			cfg := topologyConfig(noc.TopoMesh)
			cfg.Placement = strat
			cfg.PlacementSeed = 11

			t1, _, _, err := PlacementPlan(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t2, _, _, err := PlacementPlan(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !t1.Equal(t2) {
				t.Fatalf("%v mapping not deterministic:\n %v\n %v", strat, t1.Perm(), t2.Perm())
			}
			if r1, r2 := mustRun(t, cfg), mustRun(t, cfg); !reflect.DeepEqual(r1, r2) {
				t.Fatalf("%v runs differ for fixed seed", strat)
			}
		})
	}
}

// TestPlacementPlanShapesAndIdentity: the plan reports the table the
// engines simulate with, row-major is the identity, and the optimizing
// tables are valid permutations.
func TestPlacementPlan(t *testing.T) {
	cfg := topologyConfig(noc.TopoMesh)
	tab, tr, topo, err := PlacementPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.IsIdentity() {
		t.Fatal("row-major plan not the identity")
	}
	if tr == nil || tr.Total() == 0 {
		t.Fatal("plan sampled no traffic for a generative workload")
	}
	if topo.Kind() != noc.TopoMesh {
		t.Fatalf("plan topology %v", topo.Kind())
	}

	cfg.Placement = place.Annealed
	ann, annTr, _, err := PlacementPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ann.IsIdentity() {
		t.Fatal("annealed plan degenerated to identity despite sampled traffic")
	}
	if c1, c0 := place.Cost(ann, topo, annTr), place.Cost(tab, topo, annTr); c1 > c0 {
		t.Fatalf("annealed plan costs more than row-major: %v > %v", c1, c0)
	}
	// The engine must adopt exactly this table.
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(norm)
	if err != nil {
		t.Fatal(err)
	}
	if !s.pl.Equal(ann) {
		t.Fatal("engine placement table differs from PlacementPlan")
	}
}

// TestPlacementSamplerIndependence: enabling an optimized placement must
// not perturb the simulated address streams — the run's instruction and
// access totals match the row-major run (only latencies may move).
func TestPlacementSamplerIndependence(t *testing.T) {
	base := mustRun(t, topologyConfig(noc.TopoMesh))
	cfg := topologyConfig(noc.TopoMesh)
	cfg.Placement = place.Annealed
	opt := mustRun(t, cfg)
	if base.Instructions != opt.Instructions || base.L2Accesses != opt.L2Accesses {
		t.Fatalf("placement changed the simulated workload: instr %d vs %d, accesses %d vs %d",
			base.Instructions, opt.Instructions, base.L2Accesses, opt.L2Accesses)
	}
}

// TestPlacementKeyDistinctness (satellite of the cache-key plumbing):
// configs that differ only in the placement knobs must never share a
// canonical key — and the deterministic strategies must collapse the
// redundant seed axis to a single key.
func TestPlacementKeyDistinctness(t *testing.T) {
	hash := func(cfg Config) string {
		t.Helper()
		h, err := cfg.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	base := topologyConfig(noc.TopoMesh)
	keys := map[string]string{}
	for _, kind := range noc.TopologyKinds() {
		cfg := base
		cfg.Topology = kind
		if prev, dup := keys[hash(cfg)]; dup {
			t.Fatalf("topology %v collides with %s", kind, prev)
		}
		keys[hash(cfg)] = kind.String()
	}
	for _, strat := range []place.Strategy{place.Random, place.LocalityAware, place.Annealed} {
		cfg := base
		cfg.Placement = strat
		if prev, dup := keys[hash(cfg)]; dup {
			t.Fatalf("placement %v collides with %s", strat, prev)
		}
		keys[hash(cfg)] = strat.String()
	}

	// Seeded strategies: distinct seeds are distinct keys.
	a, b := base, base
	a.Placement, b.Placement = place.Annealed, place.Annealed
	a.PlacementSeed, b.PlacementSeed = 1, 2
	if hash(a) == hash(b) {
		t.Fatal("annealed configs differing only in PlacementSeed share a key")
	}
	// A zero seed adopts Seed, so it keys like an explicit Seed-valued one.
	c := base
	c.Placement = place.Annealed
	c.PlacementSeed = 0
	d := c
	d.PlacementSeed = base.Seed
	if hash(c) != hash(d) {
		t.Fatal("defaulted PlacementSeed does not normalize to Seed")
	}
	// Deterministic strategies pin the seed: one behavior, one key.
	e, f := base, base
	e.Placement, f.Placement = place.LocalityAware, place.LocalityAware
	e.PlacementSeed, f.PlacementSeed = 5, 9
	if hash(e) != hash(f) {
		t.Fatal("locality placement splits one behavior across seed-keyed entries")
	}
}
