package tlb

import (
	"math/rand"
	"slices"
	"testing"

	"nocstar/internal/vm"
)

// burstGeometries covers every indexing path InvalidateBurst can meet:
// power-of-two and non-power-of-two set counts, hashed indexing, a
// per-context way quota, a fully associative array, and arrays small
// enough that even a few pages take the single-pass path.
var burstGeometries = []Config{
	{Name: "L1-4K", Entries: 64, Ways: 4, Sizes: []vm.PageSize{vm.Page4K}},
	{Name: "L1-1G", Entries: 4, Ways: 4, Sizes: []vm.PageSize{vm.Page1G}},
	{Name: "tiny", Entries: 8, Ways: 2, Sizes: []vm.PageSize{vm.Page4K, vm.Page2M}},
	{Name: "privL2", Entries: 1024, Ways: 8, Sizes: []vm.PageSize{vm.Page4K, vm.Page2M}},
	{Name: "slice", Entries: 920, Ways: 8, Sizes: []vm.PageSize{vm.Page4K, vm.Page2M}, IndexHash: true},
	{Name: "slice-pow2", Entries: 512, Ways: 8, Sizes: []vm.PageSize{vm.Page4K, vm.Page2M}, IndexHash: true},
	{Name: "qos", Entries: 64, Ways: 8, Sizes: []vm.PageSize{vm.Page4K, vm.Page2M}, MaxCtxWays: 3},
}

// burstNeighbourVPN draws a VPN for a translation that sits in or near
// the burst window at base: inside it, or within 8 pages beyond either
// end.
func burstNeighbourVPN(rng *rand.Rand, base uint64) uint64 {
	switch rng.Intn(4) {
	case 0:
		if base >= 8 {
			return base - 1 - uint64(rng.Intn(8))
		}
		fallthrough
	case 1:
		return base + burstPages + uint64(rng.Intn(8))
	default:
		return base + uint64(rng.Intn(burstPages))
	}
}

// burstFill inserts n translations around the window at base: mostly
// the burst's own context and page size, plus other contexts and the
// other page sizes at the same VPNs (keys that differ from a burst page
// only in their context or size bits).
func burstFill(rng *rand.Rand, tls []*TLB, ctx vm.ContextID, base uint64, n int) {
	sizes := []vm.PageSize{vm.Page4K, vm.Page2M, vm.Page1G}
	for i := 0; i < n; i++ {
		c, size := ctx, vm.Page4K
		if rng.Intn(4) == 0 {
			c = ctx + 1 + vm.ContextID(rng.Intn(2))
		}
		if rng.Intn(4) == 0 {
			size = sizes[rng.Intn(len(sizes))]
		}
		vpn := burstNeighbourVPN(rng, base)
		pfn := rng.Uint64() >> 20
		for _, tl := range tls {
			tl.Insert(c, vpn, size, pfn)
		}
	}
}

// checkBurstMatchesPerPage builds two identical arrays of geometry cfg,
// applies one random burst to the first with InvalidateBurst and the
// same pages to the second with one InvalidatePage each, and requires
// identical keys, removal counts and statistics — then identical victims
// over a following run of inserts.
func checkBurstMatchesPerPage(t *testing.T, cfg Config, rng *rand.Rand) {
	t.Helper()
	burst, perPage := New(cfg), New(cfg)
	tls := []*TLB{burst, perPage}

	const ctx = vm.ContextID(5)
	size := vm.Page4K
	if rng.Intn(4) == 0 {
		size = vm.Page2M
	}
	base := uint64(0)
	if rng.Intn(8) != 0 {
		base = (rng.Uint64() >> 30) &^ (burstPages - 1)
	}
	burstFill(rng, tls, ctx, base, rng.Intn(3*cfg.Entries+1))

	// Every density from one page to the whole window.
	var b Burst
	var pages []uint64
	density := rng.Intn(burstPages + 1)
	if rng.Intn(4) == 0 {
		density = burstPages
	}
	for off := uint64(0); off < burstPages; off++ {
		if rng.Intn(burstPages) < density {
			inv := vm.Invalidation{Ctx: ctx, VPN: base + off, Size: size}
			if !b.Add(inv) {
				t.Fatalf("%s: Add rejected %+v into a burst of the same window", cfg.Name, inv)
			}
			pages = append(pages, base+off)
		}
	}
	if b.Pages() != len(pages) {
		t.Fatalf("%s: burst names %d pages, added %d", cfg.Name, b.Pages(), len(pages))
	}

	got := burst.InvalidateBurst(&b)
	want := 0
	for _, vpn := range pages {
		if perPage.InvalidatePage(ctx, vpn, size) {
			want++
		}
	}
	if got != want {
		t.Fatalf("%s: burst of %d pages removed %d entries, per-page removed %d",
			cfg.Name, len(pages), got, want)
	}
	if !slices.Equal(burst.keys, perPage.keys) {
		t.Fatalf("%s: arrays differ after a burst of %d pages", cfg.Name, len(pages))
	}
	if burst.Stats() != perPage.Stats() {
		t.Fatalf("%s: stats %+v after burst, %+v per page", cfg.Name, burst.Stats(), perPage.Stats())
	}
	for _, vpn := range pages {
		if burst.Probe(ctx, vpn, size) {
			t.Fatalf("%s: vpn %#x survived its burst", cfg.Name, vpn)
		}
	}

	// Invalidated ways must be refilled, and LRU victims chosen, alike.
	for i := 0; i < cfg.Entries; i++ {
		c := ctx + vm.ContextID(rng.Intn(3))
		vpn := burstNeighbourVPN(rng, base)
		if eb, ep := burst.Insert(c, vpn, size, 1), perPage.Insert(c, vpn, size, 1); eb != ep {
			t.Fatalf("%s: insert %d evicted=%v after burst, %v per page", cfg.Name, i, eb, ep)
		}
		if !slices.Equal(burst.keys, perPage.keys) {
			t.Fatalf("%s: insert %d chose different victims after burst and per page", cfg.Name, i)
		}
	}
	if burst.Stats() != perPage.Stats() {
		t.Fatalf("%s: stats diverge after refill: %+v vs %+v", cfg.Name, burst.Stats(), perPage.Stats())
	}
}

func TestInvalidateBurstMatchesPerPage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range burstGeometries {
		for trial := 0; trial < 200; trial++ {
			checkBurstMatchesPerPage(t, cfg, rng)
		}
	}
}

func TestBurstAdd(t *testing.T) {
	var b Burst
	page := func(ctx vm.ContextID, vpn uint64, size vm.PageSize) vm.Invalidation {
		return vm.Invalidation{Ctx: ctx, VPN: vpn, Size: size}
	}
	if !b.Add(page(3, 1024+7, vm.Page4K)) || b.Base != 1024 || b.Pages() != 1 {
		t.Fatalf("first page: %+v", b)
	}
	for _, inv := range []vm.Invalidation{
		page(4, 1024+8, vm.Page4K),   // another context
		page(3, 1024+8, vm.Page2M),   // another page size
		page(3, 1023, vm.Page4K),     // just below the window
		page(3, 1024+512, vm.Page4K), // just above the window
		{Ctx: 3, FullFlush: true},    // a flush beside pages
	} {
		if b.Add(inv) {
			t.Fatalf("burst at %#x took %+v", b.Base, inv)
		}
	}
	if !b.Add(page(3, 1024+511, vm.Page4K)) || !b.Add(page(3, 1024+7, vm.Page4K)) || b.Pages() != 2 {
		t.Fatalf("window ends or a repeat page: %d pages", b.Pages())
	}

	var f Burst
	if !f.Add(vm.Invalidation{Ctx: 2, FullFlush: true}) || !f.FullFlush || f.Pages() != 0 {
		t.Fatalf("flush burst: %+v", f)
	}
	if f.Add(page(2, 0, vm.Page4K)) || f.Add(vm.Invalidation{Ctx: 2, FullFlush: true}) {
		t.Fatal("flush burst took a second invalidation")
	}
}

func TestInvalidateBurstFullFlush(t *testing.T) {
	a, c := newSmall(), newSmall()
	for _, tl := range []*TLB{a, c} {
		tl.Insert(1, 1, vm.Page4K, 1)
		tl.Insert(1, 9, vm.Page2M, 2)
		tl.Insert(2, 3, vm.Page4K, 3)
	}
	var b Burst
	b.Add(vm.Invalidation{Ctx: 1, FullFlush: true})
	if n, want := a.InvalidateBurst(&b), c.InvalidateContext(1); n != want || n != 2 {
		t.Fatalf("flush burst removed %d, InvalidateContext %d, want 2", n, want)
	}
	if !slices.Equal(a.keys, c.keys) || a.Stats() != c.Stats() {
		t.Fatal("flush burst and InvalidateContext leave different arrays")
	}
}

// FuzzInvalidateBurst drives the burst/per-page differential check with
// fuzzer-chosen seeds over every geometry.
func FuzzInvalidateBurst(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		for g := range burstGeometries {
			f.Add(seed, uint8(g))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, geometry uint8) {
		cfg := burstGeometries[int(geometry)%len(burstGeometries)]
		checkBurstMatchesPerPage(t, cfg, rand.New(rand.NewSource(seed)))
	})
}
