package noc

// This file models the packet-switched baselines the paper compares
// against: a classic multi-hop mesh and the SMART bypass NoC.
//
// The paper's methodology deliberately idealizes both baselines: "we place
// enough buffers and links in the system to prevent link contention.
// Including any network contention may further degrade performance of
// workloads for traditional mesh networks" (Section IV). Both models are
// therefore contention-free closed forms of the XY hop count, which is
// *conservative for NOCSTAR* — NOCSTAR is the only fabric simulated with
// real contention.

// The paper's baseline constants.
const (
	meshRouterCycles = 1 // tr: per-hop router pipeline delay
	meshLinkCycles   = 1 // tw: per-hop wire delay
	smartHPCmax      = 8 // hops a SMART bypass covers per cycle
	smartSetupCycles = 1 // per-message bypass-path setup (SSR broadcast)
)

// MeshLatency returns the one-way latency of an h-hop message on the
// contention-free multi-hop mesh: the textbook T = H(tr + tw), with a
// 1-cycle router and a 1-cycle link. Local delivery (h == 0) is free.
func MeshLatency(h int) int {
	if h <= 0 {
		return 0
	}
	return h * (meshRouterCycles + meshLinkCycles)
}

// SMARTLatency returns the one-way latency of an h-hop message on the
// SMART bypass NoC [Krishna et al., HPCA 2013], which the paper evaluates
// under the monolithic organization (Fig. 15): a 1-cycle setup plus one
// cycle per HPCmax-hop bypass segment, HPCmax 8. It is modeled
// contention-free like the mesh (optimistic for the baseline: the paper
// notes SMART paths "are not guaranteed", with false positives and
// negatives).
func SMARTLatency(h int) int {
	if h <= 0 {
		return 0
	}
	return smartSetupCycles + (h+smartHPCmax-1)/smartHPCmax
}
