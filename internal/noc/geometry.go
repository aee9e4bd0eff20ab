// Package noc implements the on-chip interconnects of the paper: the
// multi-hop mesh and SMART baselines, the Table I design-space models
// (bus, flattened butterfly), and NOCSTAR itself — a latchless,
// circuit-switched fabric with per-link arbiters that sets up an entire
// source-to-destination path in one cycle and traverses it in
// ceil(hops/HPCmax) cycles (Section III-B).
package noc

import "fmt"

// NodeID identifies a tile. Tiles are numbered row-major on a 2-D grid.
type NodeID int

// Geometry is a 2-D grid of tiles.
type Geometry struct {
	Rows, Cols int
}

// GridFor returns the most square geometry that tiles exactly n cores
// when n has a reasonable factorization (16 → 4x4, 32 → 8x4, 128 → 16x8),
// matching how the paper lays out 16-512 core chips; otherwise the
// smallest near-square grid with at least n tiles.
func GridFor(n int) Geometry {
	if n <= 0 {
		panic("noc: GridFor with non-positive node count")
	}
	best := Geometry{}
	for r := 1; r*r <= n; r++ {
		if n%r == 0 {
			c := n / r
			if c <= 2*r || best.Rows == 0 {
				best = Geometry{Rows: c, Cols: r}
			}
		}
	}
	if best.Rows != 0 && best.Rows <= 2*best.Cols {
		return best
	}
	rows := 1
	for rows*rows < n {
		rows++
	}
	cols := rows
	for rows*(cols-1) >= n {
		cols--
	}
	return Geometry{Rows: rows, Cols: cols}
}

// Nodes reports the tile count.
func (g Geometry) Nodes() int { return g.Rows * g.Cols }

// Coord returns the (row, col) of a node.
func (g Geometry) Coord(n NodeID) (row, col int) {
	if int(n) < 0 || int(n) >= g.Nodes() {
		panic(fmt.Sprintf("noc: node %d outside %dx%d grid", n, g.Rows, g.Cols))
	}
	return int(n) / g.Cols, int(n) % g.Cols
}

// Node returns the NodeID at (row, col).
func (g Geometry) Node(row, col int) NodeID {
	if row < 0 || row >= g.Rows || col < 0 || col >= g.Cols {
		panic(fmt.Sprintf("noc: coordinate (%d,%d) outside %dx%d grid", row, col, g.Rows, g.Cols))
	}
	return NodeID(row*g.Cols + col)
}

// Hops returns the Manhattan distance between two nodes — the hop count H
// in the paper's latency formula.
func (g Geometry) Hops(a, b NodeID) int {
	ra, ca := g.Coord(a)
	rb, cb := g.Coord(b)
	return abs(ra-rb) + abs(ca-cb)
}

// MeanHops returns the average Manhattan distance from a uniformly random
// source to a uniformly random (possibly equal) destination.
func (g Geometry) MeanHops() float64 {
	// Mean |i-j| over a line of k points is (k^2-1)/(3k).
	lineMean := func(k int) float64 {
		return float64(k*k-1) / float64(3*k)
	}
	return lineMean(g.Rows) + lineMean(g.Cols)
}

// Direction of a directed mesh link out of a node.
type Direction int

// Mesh link directions.
const (
	East Direction = iota
	West
	North
	South
	numDirections
)

// LinkID identifies one directed mesh link as node*4+direction.
type LinkID int

// NumLinks reports the size of the directed-link ID space (including
// edge slots that have no physical link; those are simply never used).
func (g Geometry) NumLinks() int { return g.Nodes() * int(numDirections) }

// Link returns the ID of the directed link leaving n in direction d.
func (g Geometry) Link(n NodeID, d Direction) LinkID {
	return LinkID(int(n)*int(numDirections) + int(d))
}

// XYPath returns the directed links of the XY route from src to dst:
// all X (east/west) movement first, then Y (north/south). The paper's
// NOCSTAR uses XY routing for its arbitrated paths (Section III-B2).
// The path is empty when src == dst.
func (g Geometry) XYPath(src, dst NodeID) []LinkID {
	return g.AppendXYPath(make([]LinkID, 0, g.Hops(src, dst)), src, dst)
}

// AppendXYPath appends the links of XYPath(src, dst) to path and returns
// the extended slice, so a caller that reuses its buffer allocates
// nothing.
func (g Geometry) AppendXYPath(path []LinkID, src, dst NodeID) []LinkID {
	r0, c0 := g.Coord(src)
	r1, c1 := g.Coord(dst)
	r, c := r0, c0
	for c != c1 {
		if c < c1 {
			path = append(path, g.Link(g.Node(r, c), East))
			c++
		} else {
			path = append(path, g.Link(g.Node(r, c), West))
			c--
		}
	}
	for r != r1 {
		if r < r1 {
			path = append(path, g.Link(g.Node(r, c), South))
			r++
		} else {
			path = append(path, g.Link(g.Node(r, c), North))
			r--
		}
	}
	return path
}

// LinkEndpoints returns the tail and head nodes of a link. It panics for
// IDs whose direction would leave the grid.
func (g Geometry) LinkEndpoints(l LinkID) (from, to NodeID) {
	n := NodeID(int(l) / int(numDirections))
	d := Direction(int(l) % int(numDirections))
	r, c := g.Coord(n)
	switch d {
	case East:
		return n, g.Node(r, c+1)
	case West:
		return n, g.Node(r, c-1)
	case North:
		return n, g.Node(r-1, c)
	case South:
		return n, g.Node(r+1, c)
	}
	panic("noc: invalid link")
}

// ArbiterFanin returns, for the link l, how many distinct source nodes can
// ever request it under XY routing — the paper's Fig. 7(d) fan-in
// discussion (an X link has few requesters, a Y link up to a column's
// worth of rows times columns). An X link is used only by sources on
// its own row at or behind it; a Y link by every source in the rows at
// or behind it, after their X leg has brought them to its column. Edge
// slots with no physical link have no requesters.
func (g Geometry) ArbiterFanin(l LinkID) int {
	r, c := g.Coord(NodeID(int(l) / int(numDirections)))
	switch Direction(int(l) % int(numDirections)) {
	case East:
		if c == g.Cols-1 {
			return 0
		}
		return c + 1
	case West:
		if c == 0 {
			return 0
		}
		return g.Cols - c
	case South:
		if r == g.Rows-1 {
			return 0
		}
		return (r + 1) * g.Cols
	default: // North
		if r == 0 {
			return 0
		}
		return (g.Rows - r) * g.Cols
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
