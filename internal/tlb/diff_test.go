package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"nocstar/internal/vm"
)

// refTLB is a naive reference model of a TLB array: a map of live
// translations, each stamped with the tick of its last hit or insert,
// and a per-set count of live entries. A full set evicts its entry with
// the oldest tick. Ticks advance on every lookup and insert, as the
// array's do, so the oldest entry of a set is always unique.
type refTLB struct {
	ways  int
	nsets uint64
	hash  bool
	sizes []vm.PageSize
	tick  uint64
	live  map[refKey]refEntry
	count map[uint64]int // set -> live entries
}

type refKey struct {
	ctx  vm.ContextID
	size vm.PageSize
	vpn  uint64
}

type refEntry struct {
	pfn, tick uint64
}

func newRefTLB(cfg Config) *refTLB {
	ways := cfg.Ways
	if ways <= 0 || ways > cfg.Entries {
		ways = cfg.Entries
	}
	return &refTLB{
		ways:  ways,
		nsets: uint64(cfg.Entries / ways),
		hash:  cfg.IndexHash,
		sizes: cfg.Sizes,
		live:  map[refKey]refEntry{},
		count: map[uint64]int{},
	}
}

// set is the array's documented set index: low VPN bits, with the high
// bits XOR-folded in first under IndexHash.
func (r *refTLB) set(vpn uint64) uint64 {
	if r.hash {
		vpn ^= vpn >> 13
		vpn ^= vpn >> 7
	}
	return vpn % r.nsets
}

func (r *refTLB) lookup(ctx vm.ContextID, va vm.VirtAddr) (Entry, bool) {
	r.tick++
	for _, size := range r.sizes {
		k := refKey{ctx, size, va.VPN(size)}
		if e, ok := r.live[k]; ok {
			e.tick = r.tick
			r.live[k] = e
			return Entry{PFN: e.pfn, Size: size}, true
		}
	}
	return Entry{}, false
}

func (r *refTLB) insert(ctx vm.ContextID, vpn uint64, size vm.PageSize, pfn uint64) bool {
	r.tick++
	k := refKey{ctx, size, vpn}
	if _, ok := r.live[k]; ok {
		r.live[k] = refEntry{pfn: pfn, tick: r.tick}
		return false
	}
	set := r.set(vpn)
	evicted := false
	if r.count[set] == r.ways {
		var victim refKey
		oldest := ^uint64(0)
		for vk, e := range r.live {
			if r.set(vk.vpn) == set && e.tick < oldest {
				victim, oldest = vk, e.tick
			}
		}
		delete(r.live, victim)
		r.count[set]--
		evicted = true
	}
	r.live[k] = refEntry{pfn: pfn, tick: r.tick}
	r.count[set]++
	return evicted
}

func (r *refTLB) invalidate(ctx vm.ContextID, vpn uint64, size vm.PageSize) bool {
	k := refKey{ctx, size, vpn}
	if _, ok := r.live[k]; !ok {
		return false
	}
	delete(r.live, k)
	r.count[r.set(vpn)]--
	return true
}

func (r *refTLB) flush() int {
	n := len(r.live)
	clear(r.live)
	clear(r.count)
	return n
}

// TestDifferentialAgainstReference drives L1-shaped and slice-shaped
// arrays through random sequences of Insert, Lookup, InvalidatePage,
// InvalidateBurst and Flush, and checks every result against the naive
// reference model: each lookup's (PFN, Size, ok), each insert's evicted
// flag, each invalidation's count, and the final occupancy. This pins
// the victim choice of the struct-of-arrays layout: the oldest valid way
// of a full set, and no eviction while a set has an invalid way.
func TestDifferentialAgainstReference(t *testing.T) {
	l1 := DefaultL1Sizing()
	configs := []Config{
		{Name: "L1-4K", Entries: l1.Entries4K, Ways: l1.Ways4K, Sizes: []vm.PageSize{vm.Page4K}},
		{Name: "L1-2M", Entries: l1.Entries2M, Ways: l1.Ways2M, Sizes: []vm.PageSize{vm.Page2M}},
		{Name: "L1-1G", Entries: l1.Entries1G, Ways: l1.Entries1G, Sizes: []vm.PageSize{vm.Page1G}},
		{Name: "slice", Entries: 1024, Ways: 8, Sizes: []vm.PageSize{vm.Page4K, vm.Page2M}, IndexHash: true},
		// Six sets: the modulo index of a non-power-of-two set count.
		{Name: "odd-sets", Entries: 48, Ways: 8, Sizes: []vm.PageSize{vm.Page4K, vm.Page2M}},
	}
	for _, cfg := range configs {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				diffRun(t, cfg, rand.New(rand.NewSource(seed)), 20_000)
			})
		}
	}
}

func diffRun(t *testing.T, cfg Config, rng *rand.Rand, ops int) {
	tl := New(cfg)
	ref := newRefTLB(cfg)
	// Addresses span four 2 MB windows (and, at 1 GB pages, four
	// pages), so sets overflow, and 4 KB and 2 MB entries of one
	// address coexist in the unified arrays.
	const span = 4 * 512
	va := func() vm.VirtAddr {
		vpn := uint64(rng.Intn(span))
		if cfg.Sizes[0] == vm.Page1G {
			vpn = uint64(rng.Intn(8)) << 18
		}
		return vm.VirtAddr(vpn<<12 | uint64(rng.Intn(4096)))
	}
	size := func() vm.PageSize { return cfg.Sizes[rng.Intn(len(cfg.Sizes))] }
	ctx := func() vm.ContextID { return vm.ContextID(1 + rng.Intn(2)) }
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 45:
			c, a := ctx(), va()
			got, gotOK := tl.Lookup(c, a)
			want, wantOK := ref.lookup(c, a)
			if got != want || gotOK != wantOK {
				t.Fatalf("op %d: Lookup(%d, %#x) = %+v, %v; reference %+v, %v", op, c, a, got, gotOK, want, wantOK)
			}
		case r < 85:
			c, s, a := ctx(), size(), va()
			pfn := rng.Uint64() >> 20
			got := tl.Insert(c, a.VPN(s), s, pfn)
			if want := ref.insert(c, a.VPN(s), s, pfn); got != want {
				t.Fatalf("op %d: Insert(%d, %#x, %v) evicted %v; reference %v", op, c, a.VPN(s), s, got, want)
			}
		case r < 95:
			c, s, a := ctx(), size(), va()
			got := tl.InvalidatePage(c, a.VPN(s), s)
			if want := ref.invalidate(c, a.VPN(s), s); got != want {
				t.Fatalf("op %d: InvalidatePage(%d, %#x, %v) = %v; reference %v", op, c, a.VPN(s), s, got, want)
			}
		case r < 99:
			var b Burst
			c, s, base := ctx(), size(), va()
			window := base.VPN(s) &^ (burstPages - 1)
			// Small bursts probe page by page and large ones scan the
			// keys; draw both.
			pages := 1 + rng.Intn(8)
			if rng.Intn(2) == 0 {
				pages = 1 + rng.Intn(burstPages)
			}
			for i := 0; i < pages; i++ {
				b.Add(vm.Invalidation{Ctx: c, VPN: window + uint64(rng.Intn(burstPages)), Size: s})
			}
			want := 0
			for w, word := range b.Mask {
				for bit := 0; bit < 64; bit++ {
					if word&(1<<bit) != 0 && ref.invalidate(c, b.Base+uint64(w*64+bit), s) {
						want++
					}
				}
			}
			if got := tl.InvalidateBurst(&b); got != want {
				t.Fatalf("op %d: InvalidateBurst of %d pages removed %d; reference %d", op, b.Pages(), got, want)
			}
		default:
			if got, want := tl.Flush(), ref.flush(); got != want {
				t.Fatalf("op %d: Flush dropped %d; reference %d", op, got, want)
			}
		}
	}
	if got, want := tl.Occupancy(), len(ref.live); got != want {
		t.Fatalf("occupancy %d; reference %d", got, want)
	}
}
