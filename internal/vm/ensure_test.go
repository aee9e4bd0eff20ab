package vm

import (
	"math/rand"
	"testing"
)

// legacyEnsureMapped is EnsureMapped as a translate-then-Map pair: one
// walk to test for a mapping, an extent drawn, and a second descent in
// Map that fails, leaving the extent spent, when a table of smaller
// pages occupies a superpage's extent.
func legacyEnsureMapped(as *AddressSpace, va VirtAddr, s PageSize) bool {
	if _, _, ok := as.PT.Translate(va); ok {
		return false
	}
	var pa PhysAddr
	switch s {
	case Page4K:
		pa = PhysAddr(as.frames.Alloc() << 12)
	case Page2M:
		as.next2M++
		pa = PhysAddr(as.region<<regionShift | flag2M | as.next2M<<21)
	case Page1G:
		as.next1G++
		pa = PhysAddr(as.region<<regionShift | flag1G | as.next1G<<30)
	}
	return as.PT.Map(va.PageBase(s), pa, s) == nil
}

// legacyEnsure is the sequence Ensure replaces: demand-map at s, fall
// back to a base page when that mapped nothing, then translate.
func legacyEnsure(as *AddressSpace, va VirtAddr, s PageSize) (PhysAddr, PageSize) {
	legacyEnsureMapped(as, va, s)
	if _, _, ok := as.PT.Translate(va); !ok {
		legacyEnsureMapped(as, va, Page4K)
	}
	pa, size, _ := as.PT.Translate(va)
	return pa, size
}

// sameSpace fails unless two address spaces have drawn the same frames,
// table pages and superpage numbers, count the same mappings, and walk
// every probe identically, PTE addresses included.
func sameSpace(t *testing.T, got, want *AddressSpace, probes []VirtAddr) {
	t.Helper()
	if got.frames.next != want.frames.next || got.tables.next != want.tables.next ||
		got.next2M != want.next2M || got.next1G != want.next1G {
		t.Fatalf("allocators: frames %d/%d tables %d/%d 2M %d/%d 1G %d/%d (got/want)",
			got.frames.next, want.frames.next, got.tables.next, want.tables.next,
			got.next2M, want.next2M, got.next1G, want.next1G)
	}
	if got.PT.count != want.PT.count || got.PT.mapped != want.PT.mapped {
		t.Fatalf("table: %d nodes %v mapped; want %d nodes %v mapped",
			got.PT.count, got.PT.mapped, want.PT.count, want.PT.mapped)
	}
	for _, va := range probes {
		g, gok := got.PT.Walk(va)
		w, wok := want.PT.Walk(va)
		if g != w || gok != wok {
			t.Fatalf("walk %#x: %+v %v; want %+v %v", uint64(va), g, gok, w, wok)
		}
	}
}

// TestEnsureMapsOnMissOnly: Ensure returns what Translate returns
// afterwards, maps at the requested size on a miss, and consults the
// size only on a miss.
func TestEnsureMapsOnMissOnly(t *testing.T) {
	as := NewAddressSpace(3)
	calls := 0
	size := func(s PageSize) func(VirtAddr) PageSize {
		return func(VirtAddr) PageSize { calls++; return s }
	}
	for _, tc := range []struct {
		va   VirtAddr
		size PageSize
	}{
		{0x4000_1234, Page4K},
		{0x4060_0042, Page2M},
		{0x8000_0007, Page1G},
	} {
		calls = 0
		pa, got := as.Ensure(tc.va, size(tc.size))
		if got != tc.size || calls != 1 {
			t.Fatalf("%#x: mapped at %v after %d size calls, want %v after 1", uint64(tc.va), got, calls, tc.size)
		}
		tpa, tsize, ok := as.Translate(tc.va)
		if !ok || tpa != pa || tsize != got {
			t.Fatalf("%#x: Ensure %#x %v, Translate %#x %v %v", uint64(tc.va), pa, got, tpa, tsize, ok)
		}
		// Mapped now: another address on the same page hits.
		again := tc.va.PageBase(tc.size) + VirtAddr(tc.size.Bytes()-8)
		pa2, size2 := as.Ensure(again, size(Page4K))
		if calls != 1 || size2 != tc.size || pa2 != pa-PhysAddr(tc.va.Offset(tc.size))+PhysAddr(tc.size.Bytes()-8) {
			t.Fatalf("%#x: hit returned %#x %v after %d size calls", uint64(again), pa2, size2, calls)
		}
	}
}

// TestEnsureFallsBackToBasePage: a 2 MB page cannot be installed over a
// 4 KB PTE already in its extent, so Ensure maps a base page, having
// spent a 2 MB extent number on the failed attempt exactly as the
// EnsureMapped-then-Translate sequence did.
func TestEnsureFallsBackToBasePage(t *testing.T) {
	base := VirtAddr(0x4020_0000)
	as, legacy := NewAddressSpace(4), NewAddressSpace(4)
	as.EnsureMapped(base+5*4096, Page4K)
	legacyEnsureMapped(legacy, base+5*4096, Page4K)

	pa, size := as.Ensure(base+0x42, func(VirtAddr) PageSize { return Page2M })
	wpa, wsize := legacyEnsure(legacy, base+0x42, Page2M)
	if size != Page4K || pa != wpa || size != wsize {
		t.Fatalf("Ensure = %#x %v; want the 4K fallback %#x %v", pa, size, wpa, wsize)
	}
	if as.next2M != 1 {
		t.Fatalf("next2M = %d, want 1: the failed superpage attempt spends its extent", as.next2M)
	}
	sameSpace(t, as, legacy, []VirtAddr{base, base + 0x42, base + 5*4096})
}

// TestEnsureMatchesLegacySequence drives Ensure, EnsureMapped and
// EnsureBasePages through random sequences over a small address space
// (overlapping 1 GB, 2 MB and 4 KB requests, so superpage attempts fail
// on existing tables) beside the translate-then-Map sequences they
// replace, and checks each result and the draws of every allocator.
func TestEnsureMatchesLegacySequence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		as, legacy := NewAddressSpace(7), NewAddressSpace(7)
		var probes []VirtAddr
		for op := 0; op < 400; op++ {
			// 2 x 1G regions, 4 x 2M regions each, 16 x 4K pages each.
			va := VirtAddr(uint64(rng.Intn(2))<<30 | uint64(rng.Intn(4))<<21 |
				uint64(rng.Intn(16))<<12 | uint64(rng.Intn(4096)))
			s := PageSize(rng.Intn(3))
			if rng.Intn(4) != 0 {
				s = PageSize(rng.Intn(2)) // 1 GB requests rarer
			}
			probes = append(probes, va)
			switch rng.Intn(8) {
			case 0:
				got, want := as.EnsureBasePages(va), 0
				for i := uint64(0); i < 512; i++ {
					if legacyEnsureMapped(legacy, va.PageBase(Page2M)+VirtAddr(i*4096), Page4K) {
						want++
					}
				}
				if got != want {
					t.Fatalf("seed %d op %d: EnsureBasePages(%#x) mapped %d, want %d", seed, op, uint64(va), got, want)
				}
			case 1, 2:
				if got, want := as.EnsureMapped(va, s), legacyEnsureMapped(legacy, va, s); got != want {
					t.Fatalf("seed %d op %d: EnsureMapped(%#x, %v) = %v, want %v", seed, op, uint64(va), s, got, want)
				}
			default:
				pa, size := as.Ensure(va, func(VirtAddr) PageSize { return s })
				wpa, wsize := legacyEnsure(legacy, va, s)
				if pa != wpa || size != wsize {
					t.Fatalf("seed %d op %d: Ensure(%#x, %v) = %#x %v, want %#x %v",
						seed, op, uint64(va), s, pa, size, wpa, wsize)
				}
			}
		}
		sameSpace(t, as, legacy, probes)
	}
}

// TestEnsureBasePagesMatchesSingleCalls: mapping a region's 512 base
// pages in one descent leaves the table and allocators as 512
// EnsureMapped calls do — for an untouched region, a partly mapped one,
// and one a superpage already covers.
func TestEnsureBasePagesMatchesSingleCalls(t *testing.T) {
	base := VirtAddr(0x7000_0000_0000)
	for _, tc := range []struct {
		name string
		prep func(as *AddressSpace)
		want int
	}{
		{"untouched", func(*AddressSpace) {}, 512},
		{"partly mapped", func(as *AddressSpace) {
			for _, i := range []uint64{0, 9, 10, 300, 511} {
				legacyEnsureMapped(as, base+VirtAddr(i*4096), Page4K)
			}
		}, 507},
		{"demoted", func(as *AddressSpace) {
			legacyEnsureMapped(as, base, Page2M)
			if _, err := as.Demote2M(base); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"superpage", func(as *AddressSpace) { legacyEnsureMapped(as, base, Page2M) }, 0},
		{"gigapage", func(as *AddressSpace) { legacyEnsureMapped(as, base, Page1G) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			as, legacy := NewAddressSpace(9), NewAddressSpace(9)
			tc.prep(as)
			tc.prep(legacy)
			if got := as.EnsureBasePages(base + 0x1234); got != tc.want {
				t.Fatalf("mapped %d pages, want %d", got, tc.want)
			}
			probes := []VirtAddr{base - 4096, base + VirtAddr(Page2M.Bytes())}
			for i := uint64(0); i < 512; i++ {
				legacyEnsureMapped(legacy, base+VirtAddr(i*4096), Page4K)
				probes = append(probes, base+VirtAddr(i*4096+i))
			}
			sameSpace(t, as, legacy, probes)
		})
	}
}
