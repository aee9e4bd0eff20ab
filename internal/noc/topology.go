package noc

// This file defines the pluggable fabric-topology layer. The paper's
// baselines route over a 2-D mesh; the ROADMAP's design-space item adds
// alternatives from the related work — a 2-D torus, a single-hop
// crossbar, and a TeraNoC-style hybrid that keeps small mesh clusters
// and bridges them with a chip-wide crossbar. A Topology supplies the
// hop model the latency formulas and the slice-placement optimizer
// consume.

import (
	"fmt"
	"sort"
)

// TopologyKind selects a fabric topology.
type TopologyKind int

const (
	// TopoMesh is the paper's 2-D mesh with XY dimension-order routing
	// (the default; hop count is the Manhattan distance).
	TopoMesh TopologyKind = iota
	// TopoTorus wraps both mesh dimensions, halving worst-case and mean
	// hop distance at the cost of long wrap links.
	TopoTorus
	// TopoXBar is a single-stage crossbar: every distinct pair is one
	// hop. It models the flat high-radix extreme of the design space.
	TopoXBar
	// TopoHybrid is the TeraNoC-style two-level fabric: tiles route over
	// a local mesh within a fixed-size cluster, and clusters are bridged
	// by a single-hop crossbar between per-cluster hub tiles.
	TopoHybrid

	numTopologyKinds
)

// topologyTokens are the stable wire names of the topologies, used by
// the canonical config encoding and the -topology flag.
var topologyTokens = map[TopologyKind]string{
	TopoMesh:   "mesh",
	TopoTorus:  "torus",
	TopoXBar:   "xbar",
	TopoHybrid: "hybrid",
}

// Valid reports whether k names a known topology.
func (k TopologyKind) Valid() bool { return k >= TopoMesh && k < numTopologyKinds }

// String returns the wire name of the topology.
func (k TopologyKind) String() string {
	if tok, ok := topologyTokens[k]; ok {
		return tok
	}
	return fmt.Sprintf("TopologyKind(%d)", int(k))
}

// ParseTopologyKind resolves a wire name back to a topology kind.
func ParseTopologyKind(tok string) (TopologyKind, bool) {
	for k, t := range topologyTokens {
		if t == tok {
			return k, true
		}
	}
	return 0, false
}

// TopologyTokens returns the wire names of every topology, sorted.
func TopologyTokens() []string {
	out := make([]string, 0, len(topologyTokens))
	for _, tok := range topologyTokens {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out
}

// TopologyKinds returns every topology kind in declaration order.
func TopologyKinds() []TopologyKind {
	return []TopologyKind{TopoMesh, TopoTorus, TopoXBar, TopoHybrid}
}

// Topology is a fabric's route-length model over a tile grid. The
// contract the rest of the system depends on:
//
//   - Hops is symmetric and zero exactly when a == b, so every distinct
//     pair is at least one hop apart.
//   - All methods are pure: implementations carry no per-run state and
//     may be shared.
type Topology interface {
	// Kind identifies the topology.
	Kind() TopologyKind
	// Geometry returns the tile grid the topology spans.
	Geometry() Geometry
	// Hops returns the route length between two tiles.
	Hops(a, b NodeID) int
	// MeanHops returns the average Hops from a uniformly random source
	// to a uniformly random (possibly equal) destination.
	MeanHops() float64
}

// NewTopology constructs the topology of the given kind over g. It
// panics on an invalid kind (Config validation rejects those upstream).
func NewTopology(kind TopologyKind, g Geometry) Topology {
	switch kind {
	case TopoMesh:
		return meshTopo{g}
	case TopoTorus:
		return torusTopo{g}
	case TopoXBar:
		return xbarTopo{g}
	case TopoHybrid:
		return hybridTopo{g}
	}
	panic(fmt.Sprintf("noc: unknown topology kind %d", int(kind)))
}

// meshTopo is the XY mesh: hop count is the Manhattan distance,
// identical to Geometry.Hops.
type meshTopo struct{ g Geometry }

func (t meshTopo) Kind() TopologyKind { return TopoMesh }
func (t meshTopo) Geometry() Geometry { return t.g }
func (t meshTopo) Hops(a, b NodeID) int {
	return t.g.Hops(a, b)
}

func (t meshTopo) MeanHops() float64 { return t.g.MeanHops() }

// torusTopo wraps both dimensions: the per-dimension distance is the
// shorter way around the ring.
type torusTopo struct{ g Geometry }

func (t torusTopo) Kind() TopologyKind { return TopoTorus }
func (t torusTopo) Geometry() Geometry { return t.g }

func ringDist(a, b, k int) int {
	d := abs(a - b)
	if w := k - d; w < d {
		return w
	}
	return d
}

func (t torusTopo) Hops(a, b NodeID) int {
	ra, ca := t.g.Coord(a)
	rb, cb := t.g.Coord(b)
	return ringDist(ra, rb, t.g.Rows) + ringDist(ca, cb, t.g.Cols)
}

func (t torusTopo) MeanHops() float64 {
	// Mean ring distance over a ring of k points (including a == b).
	ringMean := func(k int) float64 {
		total := 0
		for d := 0; d < k; d++ {
			total += ringDist(0, d, k)
		}
		return float64(total) / float64(k)
	}
	return ringMean(t.g.Rows) + ringMean(t.g.Cols)
}

// xbarTopo is the single-stage crossbar: every remote pair is exactly
// one hop.
type xbarTopo struct{ g Geometry }

func (t xbarTopo) Kind() TopologyKind { return TopoXBar }
func (t xbarTopo) Geometry() Geometry { return t.g }
func (t xbarTopo) Hops(a, b NodeID) int {
	// Coord bounds-checks the IDs so all topologies reject out-of-grid
	// nodes identically.
	t.g.Coord(a)
	t.g.Coord(b)
	if a == b {
		return 0
	}
	return 1
}
func (t xbarTopo) MeanHops() float64 {
	n := float64(t.g.Nodes())
	return (n - 1) / n
}

// hybridClusterDim is the side length of one hybrid mesh cluster. 4x4
// clusters match the TeraNoC organization the related work scales to
// 1000+ cores: local traffic stays on a cheap small mesh, global
// traffic pays two local legs plus one crossbar hop.
const hybridClusterDim = 4

// hybridTopo routes intra-cluster pairs over the local mesh and
// inter-cluster pairs through the per-cluster hub tiles (the top-left
// tile of each cluster) bridged by a single-hop crossbar:
//
//	Hops = mesh(a, hub(a)) + 1 + mesh(hub(b), b)
type hybridTopo struct{ g Geometry }

func (t hybridTopo) Kind() TopologyKind { return TopoHybrid }
func (t hybridTopo) Geometry() Geometry { return t.g }

// hub returns the coordinates of the cluster hub tile of (r, c).
func hybridHub(r, c int) (hr, hc int) {
	return r - r%hybridClusterDim, c - c%hybridClusterDim
}

func (t hybridTopo) Hops(a, b NodeID) int {
	ra, ca := t.g.Coord(a)
	rb, cb := t.g.Coord(b)
	har, hac := hybridHub(ra, ca)
	hbr, hbc := hybridHub(rb, cb)
	if har == hbr && hac == hbc {
		return abs(ra-rb) + abs(ca-cb)
	}
	return abs(ra-har) + abs(ca-hac) + 1 + abs(rb-hbr) + abs(cb-hbc)
}

func (t hybridTopo) MeanHops() float64 {
	n := t.g.Nodes()
	total := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			total += t.Hops(NodeID(a), NodeID(b))
		}
	}
	return float64(total) / float64(n*n)
}
