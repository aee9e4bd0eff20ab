package noc

// This file models the packet-switched baselines the paper compares
// against: a classic multi-hop mesh and the SMART bypass NoC.
//
// The paper's methodology deliberately idealizes both baselines: "we place
// enough buffers and links in the system to prevent link contention.
// Including any network contention may further degrade performance of
// workloads for traditional mesh networks" (Section IV). Both models are
// therefore contention-free closed forms, which is *conservative for
// NOCSTAR* — NOCSTAR is the only fabric simulated with real contention.

// MeshConfig describes the baseline packet-switched fabric.
type MeshConfig struct {
	Geometry      Geometry
	RouterCycles  int // tr: per-hop router pipeline delay (paper: 1)
	LinkCycles    int // tw: per-hop wire delay (paper: 1)
	Serialization int // Ts: extra cycles for wide packets on narrow links
}

// DefaultMeshConfig returns the paper's 1-cycle-router, 1-cycle-link mesh.
func DefaultMeshConfig(g Geometry) MeshConfig {
	return MeshConfig{Geometry: g, RouterCycles: 1, LinkCycles: 1}
}

// Mesh is the contention-free multi-hop packet-switched baseline. Its
// latency formula is the textbook T = H(tr + tw) + Ts, where H is the
// XY-routed Manhattan distance.
type Mesh struct {
	cfg      MeshConfig
	messages uint64
	totalLat uint64
}

// NewMesh returns a mesh.
func NewMesh(cfg MeshConfig) *Mesh {
	if cfg.RouterCycles <= 0 {
		cfg.RouterCycles = 1
	}
	if cfg.LinkCycles <= 0 {
		cfg.LinkCycles = 1
	}
	return &Mesh{cfg: cfg}
}

// Latency returns the one-way message latency from src to dst using the
// textbook formula T = H(tr + tw) + Ts with zero contention. Local
// delivery (src == dst) is free.
func (m *Mesh) Latency(src, dst NodeID) int {
	h := m.cfg.Geometry.Hops(src, dst)
	if h == 0 {
		return 0
	}
	lat := h*(m.cfg.RouterCycles+m.cfg.LinkCycles) + m.cfg.Serialization
	m.messages++
	m.totalLat += uint64(lat)
	return lat
}

// LatencyForHops returns the latency of an h-hop traversal.
func (m *Mesh) LatencyForHops(h int) int {
	if h <= 0 {
		return 0
	}
	return h*(m.cfg.RouterCycles+m.cfg.LinkCycles) + m.cfg.Serialization
}

// Stats reports message count and mean latency.
func (m *Mesh) Stats() (messages uint64, avgLatency float64) {
	if m.messages == 0 {
		return 0, 0
	}
	return m.messages, float64(m.totalLat) / float64(m.messages)
}

// SMARTConfig describes the SMART bypass NoC [Krishna et al., HPCA 2013],
// which the paper evaluates under the monolithic organization (Fig. 15).
type SMARTConfig struct {
	Geometry Geometry
	// HPCmax is the maximum hops bypassed per cycle.
	HPCmax int
	// SetupCycles is the per-message bypass-path setup cost (SSR
	// broadcast), 1 cycle in the original design.
	SetupCycles int
}

// DefaultSMARTConfig returns SMART with HPCmax=8 and 1-cycle setup.
func DefaultSMARTConfig(g Geometry) SMARTConfig {
	return SMARTConfig{Geometry: g, HPCmax: 8, SetupCycles: 1}
}

// SMART is the bypass-mesh baseline, modeled contention-free like the
// mesh (optimistic for the baseline: the paper notes SMART paths "are not
// guaranteed", with false positives and negatives).
type SMART struct {
	cfg SMARTConfig
}

// NewSMART returns a SMART NoC model.
func NewSMART(cfg SMARTConfig) *SMART {
	if cfg.HPCmax <= 0 {
		cfg.HPCmax = 8
	}
	if cfg.SetupCycles < 0 {
		cfg.SetupCycles = 1
	}
	return &SMART{cfg: cfg}
}

// Latency returns one-way latency from src to dst: setup plus one cycle
// per HPCmax-hop bypass segment.
func (s *SMART) Latency(src, dst NodeID) int {
	return s.LatencyForHops(s.cfg.Geometry.Hops(src, dst))
}

// LatencyForHops returns the latency of an h-hop traversal.
func (s *SMART) LatencyForHops(h int) int {
	if h <= 0 {
		return 0
	}
	return s.cfg.SetupCycles + (h+s.cfg.HPCmax-1)/s.cfg.HPCmax
}

// ResetStats zeroes the accumulated mesh statistics.
func (m *Mesh) ResetStats() { m.messages, m.totalLat = 0, 0 }
