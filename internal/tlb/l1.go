package tlb

import (
	"math"

	"nocstar/internal/vm"
)

// L1Sizing is the Haswell per-core L1 TLB organization the paper models:
// 64-entry 4-way for 4K pages, 32-entry 4-way for 2M pages, 4-entry fully
// associative for 1G pages, all single-cycle and accessed in parallel with
// the L1 cache (VIPT).
type L1Sizing struct {
	Entries4K, Ways4K int
	Entries2M, Ways2M int
	Entries1G         int
}

// DefaultL1Sizing returns the paper's baseline L1 TLB sizes.
func DefaultL1Sizing() L1Sizing {
	return L1Sizing{Entries4K: 64, Ways4K: 4, Entries2M: 32, Ways2M: 4, Entries1G: 4}
}

// Scale returns the sizing with entry counts multiplied by f (the paper's
// 0.5× and 1.5× L1 studies in Fig. 6), rounded to the nearest valid
// power-of-two set count at the same associativity.
func (s L1Sizing) Scale(f float64) L1Sizing {
	scaleEntries := func(entries, ways int) int {
		if f == 1 {
			return entries
		}
		target := float64(entries) * f
		// Round set count to nearest power of two at fixed ways.
		sets := target / float64(ways)
		pow := math.Round(math.Log2(sets))
		if pow < 0 {
			pow = 0
		}
		return ways * (1 << uint(pow))
	}
	out := s
	out.Entries4K = scaleEntries(s.Entries4K, s.Ways4K)
	out.Entries2M = scaleEntries(s.Entries2M, s.Ways2M)
	n1g := int(math.Round(float64(s.Entries1G) * f))
	if n1g < 1 {
		n1g = 1
	}
	out.Entries1G = n1g
	return out
}

// L1Group is one core's set of per-page-size L1 TLBs.
type L1Group struct {
	t4k, t2m, t1g *TLB
}

// NewL1Group builds the three L1 TLBs from a sizing.
func NewL1Group(s L1Sizing) *L1Group {
	return &L1Group{
		t4k: New(Config{Name: "L1-4K", Entries: s.Entries4K, Ways: s.Ways4K, Sizes: []vm.PageSize{vm.Page4K}}),
		t2m: New(Config{Name: "L1-2M", Entries: s.Entries2M, Ways: s.Ways2M, Sizes: []vm.PageSize{vm.Page2M}}),
		t1g: New(Config{Name: "L1-1G", Entries: s.Entries1G, Ways: s.Entries1G, Sizes: []vm.PageSize{vm.Page1G}}),
	}
}

// Lookup probes the three arrays in parallel (hardware does this in one
// cycle). It returns the hit entry if any.
func (g *L1Group) Lookup(ctx vm.ContextID, va vm.VirtAddr) (Entry, bool) {
	if e, ok := g.t4k.Lookup(ctx, va); ok {
		return e, true
	}
	if e, ok := g.t2m.Lookup(ctx, va); ok {
		return e, true
	}
	if e, ok := g.t1g.Lookup(ctx, va); ok {
		return e, true
	}
	return Entry{}, false
}

// Insert places a translation in the array matching its page size.
func (g *L1Group) Insert(ctx vm.ContextID, vpn uint64, size vm.PageSize, pfn uint64) {
	g.bySize(size).Insert(ctx, vpn, size, pfn)
}

// Apply executes an invalidation against all three arrays, returning the
// number of entries removed.
func (g *L1Group) Apply(inv vm.Invalidation) int {
	if inv.FullFlush {
		return g.t4k.InvalidateContext(inv.Ctx) +
			g.t2m.InvalidateContext(inv.Ctx) +
			g.t1g.InvalidateContext(inv.Ctx)
	}
	return g.bySize(inv.Size).Apply(inv)
}

// InvalidateBurst applies a burst to the array holding its page size, or
// to all three arrays for a FullFlush burst, returning the number of
// entries removed.
func (g *L1Group) InvalidateBurst(b *Burst) int {
	if b.FullFlush {
		return g.t4k.InvalidateContext(b.Ctx) +
			g.t2m.InvalidateContext(b.Ctx) +
			g.t1g.InvalidateContext(b.Ctx)
	}
	return g.bySize(b.Size).InvalidateBurst(b)
}

// Probe reports whether the group holds the translation, without
// touching LRU state or statistics (used by invariant checking to
// assert delivered shootdowns really removed their target).
func (g *L1Group) Probe(ctx vm.ContextID, vpn uint64, size vm.PageSize) bool {
	return g.bySize(size).Probe(ctx, vpn, size)
}

// Flush empties all three arrays.
func (g *L1Group) Flush() {
	g.t4k.Flush()
	g.t2m.Flush()
	g.t1g.Flush()
}

// bySize returns the array holding pages of size s.
func (g *L1Group) bySize(s vm.PageSize) *TLB {
	switch s {
	case vm.Page4K:
		return g.t4k
	case vm.Page2M:
		return g.t2m
	case vm.Page1G:
		return g.t1g
	}
	panic("tlb: invalid page size")
}

// Stats sums lookup statistics across the three arrays. A miss in the
// group is counted once per constituent array, so MissRate on the sum is
// not meaningful; use GroupStats for per-access accounting.
func (g *L1Group) Stats() (s4k, s2m, s1g Stats) {
	return g.t4k.Stats(), g.t2m.Stats(), g.t1g.Stats()
}

// ResetStats zeroes the counters of all three arrays.
func (g *L1Group) ResetStats() {
	g.t4k.ResetStats()
	g.t2m.ResetStats()
	g.t1g.ResetStats()
}

// TLB4K exposes the 4K array (used by sizing-sensitivity experiments).
func (g *L1Group) TLB4K() *TLB { return g.t4k }
