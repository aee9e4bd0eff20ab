package system

// Slice-placement construction. The placement table is a pure function
// of the (normalized) Config: System calls buildPlacement during
// construction, so every run of one config agrees on where every
// logical slice lives.
//
// The optimizing strategies need a demand estimate. placementTraffic
// samples each thread's workload generator with an RNG derived from
// PlacementSeed — independent of the simulation's own Seed-derived
// generator streams, so enabling placement never perturbs the addresses
// a run actually simulates.

import (
	"nocstar/internal/engine"
	"nocstar/internal/noc"
	"nocstar/internal/place"
	"nocstar/internal/workload"
)

// placementSamples is how many addresses the traffic sampler draws per
// thread. A few thousand 2 MB-granule samples per source pins the hot
// columns of the demand matrix well past the annealer's needs.
const placementSamples = 2048

// buildPlacement returns the slice-placement table cfg simulates with.
// cfg must be normalized.
func buildPlacement(cfg Config, topo noc.Topology) *place.Table {
	if cfg.Placement == place.RowMajor {
		return place.Identity(cfg.Cores)
	}
	return place.Build(cfg.Placement, topo, cfg.Cores, placementTraffic(cfg), cfg.PlacementSeed)
}

// sampleSeed derives the per-thread sampler seed. Any deterministic
// mixing works; the requirement is independence from the simulation RNG
// tree (which is rooted at Seed and split in construction order).
func sampleSeed(seed int64, appIdx, thread int) int64 {
	const domain = 0x9e3779b97f4a7c15 // keep sampler streams off the Seed tree
	return int64(mix(uint64(seed)^domain) ^ mix(uint64(appIdx)<<32|uint64(uint32(thread))))
}

// placementTraffic samples the source-core × logical-slice demand
// matrix: threads are laid onto cores round-robin exactly as New does,
// and each thread's generator is rebuilt with an independent RNG and
// drawn placementSamples times. Hammered apps are skipped (their L2
// traffic is pinned to a physical slice the placement cannot move), as
// are live Streams (stateful; sampling would consume them).
func placementTraffic(cfg Config) *place.Traffic {
	n := cfg.Cores
	tr := place.NewTraffic(n)
	nextCore := 0
	for ai, acfg := range cfg.Apps {
		pinned := acfg.HammerSlice >= 0 || acfg.Streams != nil
		for t := 0; t < acfg.Threads; t++ {
			src := nextCore % n
			nextCore++
			if pinned {
				continue
			}
			rng := engine.NewRand(sampleSeed(cfg.PlacementSeed, ai, t))
			gen := workload.NewGenerator(acfg.Spec, acfg.Threads, t, rng)
			for i := 0; i < placementSamples; i++ {
				va := gen.Next()
				logical := int(mix(uint64(va)>>21) % uint64(n))
				tr.Add(src, logical, 1)
			}
		}
	}
	return tr
}

// PlacementPlan returns the placement table cfg would simulate with,
// the sampled traffic matrix behind it, and the topology it was
// optimized for. The traffic matrix is sampled even for the row-major
// strategy so callers can cost the identity mapping under the same
// demand the optimizing strategies see.
func PlacementPlan(cfg Config) (*place.Table, *place.Traffic, noc.Topology, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, nil, nil, err
	}
	topo := noc.NewTopology(cfg.Topology, noc.GridFor(cfg.Cores))
	return buildPlacement(cfg, topo), placementTraffic(cfg), topo, nil
}
