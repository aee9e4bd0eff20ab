package tlb

import (
	"testing"
	"testing/quick"

	"nocstar/internal/vm"
)

func newSmall() *TLB {
	return New(Config{Name: "t", Entries: 8, Ways: 2, Sizes: []vm.PageSize{vm.Page4K, vm.Page2M}})
}

func TestLookupInsert(t *testing.T) {
	tl := newSmall()
	va := vm.VirtAddr(0x12345000)
	if _, ok := tl.Lookup(1, va); ok {
		t.Fatal("empty TLB hit")
	}
	tl.Insert(1, va.VPN(vm.Page4K), vm.Page4K, 0x999)
	e, ok := tl.Lookup(1, va)
	if !ok || e.PFN != 0x999 || e.Size != vm.Page4K {
		t.Fatalf("lookup = %+v %v", e, ok)
	}
	// Different context misses.
	if _, ok := tl.Lookup(2, va); ok {
		t.Fatal("wrong-context hit")
	}
	// A miss leaves the array as it was.
	if _, ok := tl.Lookup(1, va); !ok || tl.Occupancy() != 1 {
		t.Fatalf("hit lost after a miss: occupancy %d", tl.Occupancy())
	}
}

func TestDualPageSize(t *testing.T) {
	tl := newSmall()
	va := vm.VirtAddr(0x40000000)
	tl.Insert(1, va.VPN(vm.Page2M), vm.Page2M, 0x7)
	e, ok := tl.Lookup(1, va+0x123456)
	if !ok || e.Size != vm.Page2M || e.PFN != 0x7 {
		t.Fatalf("2M lookup through unified array failed: %+v %v", e, ok)
	}
}

func TestLRUReplacement(t *testing.T) {
	tl := New(Config{Name: "t", Entries: 2, Ways: 2, Sizes: []vm.PageSize{vm.Page4K}})
	tl.Insert(1, 10, vm.Page4K, 1)
	tl.Insert(1, 20, vm.Page4K, 2)
	tl.Lookup(1, vm.VirtAddr(10<<12)) // refresh vpn 10
	if evicted := tl.Insert(1, 30, vm.Page4K, 3); !evicted {
		t.Fatal("full set insert did not evict")
	}
	if !tl.Probe(1, 10, vm.Page4K) {
		t.Fatal("MRU entry evicted")
	}
	if tl.Probe(1, 20, vm.Page4K) {
		t.Fatal("LRU entry survived")
	}
}

func TestInsertRefreshNoDuplicate(t *testing.T) {
	tl := newSmall()
	tl.Insert(1, 5, vm.Page4K, 100)
	tl.Insert(1, 5, vm.Page4K, 200) // remap: refresh in place
	if tl.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", tl.Occupancy())
	}
	e, _ := tl.Lookup(1, vm.VirtAddr(5<<12))
	if e.PFN != 200 {
		t.Fatalf("PFN = %d, want refreshed 200", e.PFN)
	}
}

func TestInvalidatePage(t *testing.T) {
	tl := newSmall()
	tl.Insert(3, 7, vm.Page4K, 1)
	if !tl.InvalidatePage(3, 7, vm.Page4K) {
		t.Fatal("invalidate missed present entry")
	}
	if tl.InvalidatePage(3, 7, vm.Page4K) {
		t.Fatal("double invalidate succeeded")
	}
	if tl.Probe(3, 7, vm.Page4K) {
		t.Fatal("entry survived invalidation")
	}
}

// TestInsertPrefersInvalidatedWay pins that an invalidated way is
// refilled before any valid way is evicted, even though the invalidated
// entry keeps its stale, more recent LRU stamp (only its key is zeroed).
func TestInsertPrefersInvalidatedWay(t *testing.T) {
	tl := New(Config{Name: "t", Entries: 2, Ways: 2, Sizes: []vm.PageSize{vm.Page4K}})
	tl.Insert(1, 10, vm.Page4K, 1)    // fills the last free way
	tl.Insert(1, 20, vm.Page4K, 2)    // fills the first way
	tl.Lookup(1, vm.VirtAddr(20<<12)) // vpn 20 is now the MRU way
	tl.InvalidatePage(1, 20, vm.Page4K)
	if evicted := tl.Insert(1, 30, vm.Page4K, 3); evicted {
		t.Fatal("insert evicted a valid entry while an invalidated way was free")
	}
	if !tl.Probe(1, 10, vm.Page4K) || !tl.Probe(1, 30, vm.Page4K) {
		t.Fatal("insert did not refill the invalidated way")
	}
}

func TestFlushAndOccupancy(t *testing.T) {
	tl := newSmall()
	for i := uint64(0); i < 6; i++ {
		tl.Insert(1, i, vm.Page4K, i)
	}
	occ := tl.Occupancy()
	if occ == 0 {
		t.Fatal("no occupancy after inserts")
	}
	if n := tl.Flush(); n != occ {
		t.Fatalf("flush dropped %d, occupancy was %d", n, occ)
	}
	if tl.Occupancy() != 0 {
		t.Fatal("entries survive flush")
	}
}

func TestApplyInvalidation(t *testing.T) {
	tl := newSmall()
	tl.Insert(4, 9, vm.Page4K, 5)
	tl.Insert(4, 11, vm.Page4K, 6)
	if n := tl.Apply(vm.Invalidation{Ctx: 4, VPN: 9, Size: vm.Page4K}); n != 1 {
		t.Fatalf("page apply = %d", n)
	}
	if n := tl.Apply(vm.Invalidation{Ctx: 4, VPN: 9, Size: vm.Page4K}); n != 0 {
		t.Fatalf("repeated page apply = %d", n)
	}
	if !tl.Probe(4, 11, vm.Page4K) {
		t.Fatal("page apply removed a neighbour")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 0},
		{Entries: 10, Ways: 4}, // not divisible into whole sets
		{Entries: -1, Ways: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestFullyAssociativeClamp(t *testing.T) {
	tl := New(Config{Name: "fa", Entries: 4, Ways: 0, Sizes: []vm.PageSize{vm.Page1G}})
	if tl.Sets() != 1 || tl.ways != 4 {
		t.Fatalf("sets=%d ways=%d, want 1x4", tl.Sets(), tl.ways)
	}
}

// Property: after inserting a random stream, looking up the most recent
// insert of any (ctx, vpn) pair that was never evicted or shadowed must
// hit. We verify the weaker but universal invariant: a lookup immediately
// after an insert hits and returns the inserted PFN.
func TestInsertLookupCoherenceProperty(t *testing.T) {
	tl := New(Config{Name: "p", Entries: 64, Ways: 4, Sizes: []vm.PageSize{vm.Page4K}})
	f := func(ctxRaw uint8, vpn uint32, pfn uint32) bool {
		ctx := vm.ContextID(ctxRaw)
		tl.Insert(ctx, uint64(vpn), vm.Page4K, uint64(pfn))
		e, ok := tl.Lookup(ctx, vm.VirtAddr(uint64(vpn)<<12))
		return ok && e.PFN == uint64(pfn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: occupancy never exceeds capacity and no (ctx,vpn,size) pair is
// ever duplicated.
func TestNoDuplicatesProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tl := New(Config{Name: "p", Entries: 16, Ways: 4, Sizes: []vm.PageSize{vm.Page4K}})
		for _, op := range ops {
			tl.Insert(vm.ContextID(op>>14), uint64(op&0x3f), vm.Page4K, uint64(op))
		}
		if tl.Occupancy() > 16 {
			return false
		}
		seen := map[[2]uint64]bool{}
		for s := 0; s < tl.Sets(); s++ {
			for _, vpn := range []uint64{0, 1, 2, 3} {
				_ = vpn
				_ = s
			}
		}
		// Probe the full key space used above for duplicates via Probe +
		// InvalidatePage: removing once must make a second probe miss.
		for ctx := 0; ctx < 4; ctx++ {
			for vpn := uint64(0); vpn < 64; vpn++ {
				if tl.Probe(vm.ContextID(ctx), vpn, vm.Page4K) {
					key := [2]uint64{uint64(ctx), vpn}
					if seen[key] {
						return false
					}
					seen[key] = true
					tl.InvalidatePage(vm.ContextID(ctx), vpn, vm.Page4K)
					if tl.Probe(vm.ContextID(ctx), vpn, vm.Page4K) {
						return false // duplicate entry
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestL1GroupLookupInsert(t *testing.T) {
	g := NewL1Group(DefaultL1Sizing())
	va4k := vm.VirtAddr(0x1000)
	va2m := vm.VirtAddr(0x40000000)
	va1g := vm.VirtAddr(0x80000000)
	g.Insert(1, va4k.VPN(vm.Page4K), vm.Page4K, 1)
	g.Insert(1, va2m.VPN(vm.Page2M), vm.Page2M, 2)
	g.Insert(1, va1g.VPN(vm.Page1G), vm.Page1G, 3)
	for _, tc := range []struct {
		va   vm.VirtAddr
		size vm.PageSize
	}{{va4k, vm.Page4K}, {va2m + 0x12345, vm.Page2M}, {va1g + 0x3456789, vm.Page1G}} {
		e, ok := g.Lookup(1, tc.va)
		if !ok || e.Size != tc.size {
			t.Fatalf("va %#x: %+v %v", tc.va, e, ok)
		}
	}
}

func TestL1GroupApplyAndFlush(t *testing.T) {
	g := NewL1Group(DefaultL1Sizing())
	g.Insert(1, 5, vm.Page4K, 1)
	g.Insert(1, 6, vm.Page2M, 2)
	if n := g.Apply(vm.Invalidation{Ctx: 1, VPN: 5, Size: vm.Page4K}); n != 1 {
		t.Fatalf("apply = %d", n)
	}
	if n := g.Apply(vm.Invalidation{Ctx: 1, VPN: 6, Size: vm.Page2M}); n != 1 {
		t.Fatalf("2M apply = %d", n)
	}
	g.Insert(2, 9, vm.Page4K, 1)
	g.Flush()
	if _, ok := g.Lookup(2, vm.VirtAddr(9<<12)); ok {
		t.Fatal("entry survived group flush")
	}
}

func TestL1SizingScale(t *testing.T) {
	s := DefaultL1Sizing()
	half := s.Scale(0.5)
	if half.Entries4K != 32 || half.Entries2M != 16 || half.Entries1G != 2 {
		t.Fatalf("0.5x sizing = %+v", half)
	}
	bigger := s.Scale(1.5)
	if bigger.Entries4K <= s.Entries4K {
		t.Fatalf("1.5x did not grow: %+v", bigger)
	}
	// Scaled geometries must construct valid TLBs.
	NewL1Group(half)
	NewL1Group(bigger)
	same := s.Scale(1)
	if same != s {
		t.Fatalf("1x scale changed sizing: %+v", same)
	}
}

func TestIndexHashSpreadsStridedVPNs(t *testing.T) {
	// VPNs strided by 32 (a 32-slice system's resident pattern) must not
	// all collapse onto a handful of sets when IndexHash is on.
	hashed := New(Config{Name: "h", Entries: 1024, Ways: 8, IndexHash: true, Sizes: []vm.PageSize{vm.Page4K}})
	plain := New(Config{Name: "p", Entries: 1024, Ways: 8, Sizes: []vm.PageSize{vm.Page4K}})
	for i := uint64(0); i < 1024; i++ {
		hashed.Insert(1, i*32, vm.Page4K, i)
		plain.Insert(1, i*32, vm.Page4K, i)
	}
	if h, p := hashed.Occupancy(), plain.Occupancy(); h <= p {
		t.Fatalf("hashed occupancy %d not above plain %d for strided VPNs", h, p)
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	// The paper's area-normalized 920-entry NOCSTAR slice: 115 sets of 8.
	tl := New(Config{Name: "slice", Entries: 920, Ways: 8, Sizes: []vm.PageSize{vm.Page4K}})
	if tl.Sets() != 115 {
		t.Fatalf("sets = %d, want 115", tl.Sets())
	}
	for vpn := uint64(0); vpn < 5000; vpn++ {
		tl.Insert(1, vpn, vm.Page4K, vpn)
		if _, ok := tl.Lookup(1, vm.VirtAddr(vpn<<12)); !ok {
			t.Fatalf("lookup after insert failed at vpn %d", vpn)
		}
	}
	if occ := tl.Occupancy(); occ > 920 {
		t.Fatalf("occupancy %d exceeds capacity", occ)
	}
}
