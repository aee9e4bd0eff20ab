package noc

import (
	"testing"
	"testing/quick"
)

func TestGridFor(t *testing.T) {
	cases := []struct {
		n, rows, cols int
	}{
		{1, 1, 1}, {4, 2, 2}, {16, 4, 4}, {32, 6, 6}, {64, 8, 8},
		{128, 12, 11}, {256, 16, 16}, {512, 23, 23},
	}
	for _, c := range cases {
		g := GridFor(c.n)
		if g.Nodes() < c.n {
			t.Fatalf("GridFor(%d) = %dx%d holds only %d nodes", c.n, g.Rows, g.Cols, g.Nodes())
		}
		if g.Rows*g.Cols >= 2*c.n && c.n > 1 {
			t.Fatalf("GridFor(%d) = %dx%d wastes too much", c.n, g.Rows, g.Cols)
		}
	}
}

// TestGridForProperty sweeps every core count up to just past 1024 (the
// scaling study's ceiling) and checks the invariants consumers rely on:
// the grid holds all n cores, stays near-square (so padded tiles — grid
// nodes with IDs at or above n — are bounded), and never pads a whole
// row's worth of waste.
func TestGridForProperty(t *testing.T) {
	for n := 1; n <= 1025; n++ {
		g := GridFor(n)
		if g.Nodes() < n {
			t.Fatalf("GridFor(%d) = %dx%d holds only %d nodes", n, g.Rows, g.Cols, g.Nodes())
		}
		if g.Cols < 1 || g.Rows < g.Cols {
			t.Fatalf("GridFor(%d) = %dx%d not row-dominant", n, g.Rows, g.Cols)
		}
		if g.Rows > 2*g.Cols {
			t.Fatalf("GridFor(%d) = %dx%d too elongated", n, g.Rows, g.Cols)
		}
		// Either an exact factorization or minimal padding: dropping a
		// column must lose capacity.
		if g.Nodes() != n && g.Rows*(g.Cols-1) >= n {
			t.Fatalf("GridFor(%d) = %dx%d pads a full spare column", n, g.Rows, g.Cols)
		}
	}
}

func TestGridForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GridFor(0) did not panic")
		}
	}()
	GridFor(0)
}

func TestCoordNodeRoundTrip(t *testing.T) {
	g := Geometry{Rows: 4, Cols: 8}
	for n := 0; n < g.Nodes(); n++ {
		r, c := g.Coord(NodeID(n))
		if g.Node(r, c) != NodeID(n) {
			t.Fatalf("round trip failed for node %d", n)
		}
	}
}

func TestHops(t *testing.T) {
	g := Geometry{Rows: 4, Cols: 4}
	if h := g.Hops(0, 15); h != 6 {
		t.Fatalf("corner-to-corner hops = %d, want 6", h)
	}
	if h := g.Hops(5, 5); h != 0 {
		t.Fatalf("self hops = %d", h)
	}
	if g.Hops(0, 1) != 1 || g.Hops(0, 4) != 1 {
		t.Fatal("adjacent hops != 1")
	}
}

func TestMeanHops(t *testing.T) {
	g := Geometry{Rows: 4, Cols: 4}
	// Brute force check.
	sum, cnt := 0.0, 0
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			sum += float64(g.Hops(NodeID(a), NodeID(b)))
			cnt++
		}
	}
	want := sum / float64(cnt)
	if got := g.MeanHops(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("MeanHops = %v, brute force = %v", got, want)
	}
}

func TestXYPathShape(t *testing.T) {
	g := Geometry{Rows: 4, Cols: 4}
	// Top-left to bottom-right: 3 east links then 3 south links.
	path := g.XYPath(0, 15)
	if len(path) != 6 {
		t.Fatalf("path length = %d, want 6", len(path))
	}
	for i, l := range path {
		d := Direction(int(l) % int(numDirections))
		if i < 3 && d != East {
			t.Fatalf("hop %d direction %d, want East first", i, d)
		}
		if i >= 3 && d != South {
			t.Fatalf("hop %d direction %d, want South after X", i, d)
		}
	}
	if len(g.XYPath(7, 7)) != 0 {
		t.Fatal("self path not empty")
	}
}

// Property: XY paths are contiguous (each link starts where the previous
// ended), start at src, end at dst, and have minimal length.
func TestXYPathContiguityProperty(t *testing.T) {
	g := Geometry{Rows: 6, Cols: 7}
	f := func(sRaw, dRaw uint16) bool {
		src := NodeID(int(sRaw) % g.Nodes())
		dst := NodeID(int(dRaw) % g.Nodes())
		path := g.XYPath(src, dst)
		if len(path) != g.Hops(src, dst) {
			return false
		}
		cur := src
		for _, l := range path {
			from, to := g.LinkEndpoints(l)
			if from != cur {
				return false
			}
			cur = to
		}
		return cur == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkEndpoints(t *testing.T) {
	g := Geometry{Rows: 3, Cols: 3}
	from, to := g.LinkEndpoints(g.Link(4, East))
	if from != 4 || to != 5 {
		t.Fatalf("east link = %d->%d", from, to)
	}
	from, to = g.LinkEndpoints(g.Link(4, North))
	if from != 4 || to != 1 {
		t.Fatalf("north link = %d->%d", from, to)
	}
	from, to = g.LinkEndpoints(g.Link(4, South))
	if from != 4 || to != 7 {
		t.Fatalf("south link = %d->%d", from, to)
	}
	from, to = g.LinkEndpoints(g.Link(4, West))
	if from != 4 || to != 3 {
		t.Fatalf("west link = %d->%d", from, to)
	}
}

// routeTestGrids are the grid shapes the route tests cover:
// square, non-square both ways, single row and column, and an odd shape.
var routeTestGrids = []Geometry{
	{Rows: 4, Cols: 4}, {Rows: 8, Cols: 4}, {Rows: 1, Cols: 8},
	{Rows: 8, Cols: 1}, {Rows: 5, Cols: 3}, {Rows: 32, Cols: 32},
}
