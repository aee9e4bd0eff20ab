package noc

import (
	"testing"
)

// testGrids spans the shapes the property tests sweep: degenerate,
// square, rectangular, and larger-than-one-cluster for the hybrid.
var testGrids = []Geometry{
	{Rows: 1, Cols: 1},
	{Rows: 2, Cols: 2},
	{Rows: 3, Cols: 2},
	{Rows: 4, Cols: 4},
	{Rows: 5, Cols: 4},
	{Rows: 6, Cols: 6},
	{Rows: 8, Cols: 8},
}

func TestTopologyKindTokens(t *testing.T) {
	for _, k := range TopologyKinds() {
		if !k.Valid() {
			t.Fatalf("declared kind %d invalid", int(k))
		}
		got, ok := ParseTopologyKind(k.String())
		if !ok || got != k {
			t.Fatalf("token round trip failed for %v: got %v ok=%v", k, got, ok)
		}
	}
	if _, ok := ParseTopologyKind("ring"); ok {
		t.Fatal("parsed unknown token")
	}
	toks := TopologyTokens()
	if len(toks) != len(TopologyKinds()) {
		t.Fatalf("token count %d != kind count %d", len(toks), len(TopologyKinds()))
	}
	for i := 1; i < len(toks); i++ {
		if toks[i-1] >= toks[i] {
			t.Fatalf("tokens not sorted: %q before %q", toks[i-1], toks[i])
		}
	}
	if TopologyKind(99).Valid() {
		t.Fatal("kind 99 reported valid")
	}
	if TopologyKind(99).String() != "TopologyKind(99)" {
		t.Fatalf("invalid-kind String = %q", TopologyKind(99).String())
	}
}

func TestNewTopologyPanicsOnInvalidKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTopology with invalid kind did not panic")
		}
	}()
	NewTopology(numTopologyKinds, Geometry{Rows: 2, Cols: 2})
}

// TestTopologyGoldenHops pins the hop tables of every fabric on a 4x4
// grid (nodes numbered row-major): full rows from the corner tile 0 and
// the interior tile 5, hand-derived from each topology's definition.
func TestTopologyGoldenHops(t *testing.T) {
	g := Geometry{Rows: 4, Cols: 4}
	golden := map[TopologyKind]map[NodeID][16]int{
		TopoMesh: {
			0: {0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6},
			5: {2, 1, 2, 3, 1, 0, 1, 2, 2, 1, 2, 3, 3, 2, 3, 4},
		},
		TopoTorus: {
			0: {0, 1, 2, 1, 1, 2, 3, 2, 2, 3, 4, 3, 1, 2, 3, 2},
			5: {2, 1, 2, 3, 1, 0, 1, 2, 2, 1, 2, 3, 3, 2, 3, 4},
		},
		TopoXBar: {
			0: {0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
			5: {1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		},
		// A 4x4 grid is exactly one hybrid cluster, so the hybrid
		// degenerates to the local mesh.
		TopoHybrid: {
			0: {0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6},
			5: {2, 1, 2, 3, 1, 0, 1, 2, 2, 1, 2, 3, 3, 2, 3, 4},
		},
	}
	for kind, rows := range golden {
		topo := NewTopology(kind, g)
		for src, want := range rows {
			for dst := 0; dst < 16; dst++ {
				if got := topo.Hops(src, NodeID(dst)); got != want[dst] {
					t.Errorf("%v Hops(%d,%d) = %d, want %d", kind, src, dst, got, want[dst])
				}
			}
		}
	}
}

// TestHybridCrossCluster exercises the two-level path on an 8x8 grid
// (four 4x4 clusters, hubs at the top-left tile of each).
func TestHybridCrossCluster(t *testing.T) {
	g := Geometry{Rows: 8, Cols: 8}
	topo := NewTopology(TopoHybrid, g)
	cases := []struct {
		a, b NodeID
		want int
	}{
		{g.Node(0, 0), g.Node(0, 3), 3}, // same cluster: local mesh
		{g.Node(0, 0), g.Node(0, 4), 1}, // hub to hub: one crossbar hop
		{g.Node(0, 3), g.Node(0, 4), 4}, // 3 to own hub + xbar + 0
		{g.Node(7, 7), g.Node(0, 0), 7}, // (3+3) to hub + xbar + 0
		{g.Node(5, 5), g.Node(2, 1), 6}, // (1+1) + xbar + (2+1)
	}
	for _, c := range cases {
		if got := topo.Hops(c.a, c.b); got != c.want {
			t.Errorf("hybrid Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestTopologyContract checks the interface contract every consumer
// depends on — symmetry, zero exactly on the diagonal, and accessor
// consistency — for every kind over a range of grid shapes.
func TestTopologyContract(t *testing.T) {
	for _, kind := range TopologyKinds() {
		for _, g := range testGrids {
			topo := NewTopology(kind, g)
			if topo.Kind() != kind {
				t.Fatalf("%v over %dx%d reports kind %v", kind, g.Rows, g.Cols, topo.Kind())
			}
			if topo.Geometry() != g {
				t.Fatalf("%v geometry mismatch", kind)
			}
			n := g.Nodes()
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					h := topo.Hops(NodeID(a), NodeID(b))
					if rev := topo.Hops(NodeID(b), NodeID(a)); rev != h {
						t.Fatalf("%v %dx%d Hops(%d,%d)=%d asymmetric with %d", kind, g.Rows, g.Cols, a, b, h, rev)
					}
					if (h == 0) != (a == b) || h < 0 {
						t.Fatalf("%v %dx%d Hops(%d,%d)=%d violates zero-iff-equal", kind, g.Rows, g.Cols, a, b, h)
					}
				}
			}
		}
	}
}

// TestTopologyMeanHops cross-checks every closed-form MeanHops against
// the brute-force average over all ordered pairs.
func TestTopologyMeanHops(t *testing.T) {
	for _, kind := range TopologyKinds() {
		for _, g := range testGrids {
			topo := NewTopology(kind, g)
			n := g.Nodes()
			sum := 0
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					sum += topo.Hops(NodeID(a), NodeID(b))
				}
			}
			want := float64(sum) / float64(n*n)
			if got := topo.MeanHops(); got < want-1e-9 || got > want+1e-9 {
				t.Fatalf("%v %dx%d MeanHops = %v, brute force = %v", kind, g.Rows, g.Cols, got, want)
			}
		}
	}
}

// TestTopologyHopsBoundsCheck verifies every fabric rejects
// out-of-grid nodes the same way the mesh does.
func TestTopologyHopsBoundsCheck(t *testing.T) {
	g := Geometry{Rows: 2, Cols: 2}
	for _, kind := range TopologyKinds() {
		topo := NewTopology(kind, g)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v Hops with out-of-grid node did not panic", kind)
				}
			}()
			topo.Hops(0, NodeID(g.Nodes()))
		}()
	}
}
