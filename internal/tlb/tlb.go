// Package tlb implements the TLB structures of the paper: set-associative
// translation arrays whose entries carry a valid bit, a context ID, and
// the translation (Section III-A), split per-page-size L1 TLBs matching
// the Haswell organization, and unified dual-page-size L2 TLBs used as
// private L2 TLBs, monolithic shared banks, or distributed shared slices.
package tlb

import (
	"fmt"
	"math/bits"

	"nocstar/internal/vm"
)

// Entry is the payload of a TLB hit: the frame and the page size it
// translates at. The context, VPN and validity of an entry live in the
// array's packed key, so a caller that needs the page number derives it
// as va.VPN(e.Size).
type Entry struct {
	PFN  uint64 // physical frame number at Size granularity
	Size vm.PageSize
}

// Packed-key layout: the way-match loop — the hottest code in the
// simulator — compares one word per way instead of four fields. Bit 63
// is the valid bit (a zero key never matches), bits 62-61 the page size,
// bits 60-45 the 16-bit context ID, and bits 44-0 the VPN. The field
// holds vm.VPNLimit (2^45) 4 KiB pages, 128 PiB, beyond every layout
// constant in the model; keyFor panics if a VPN ever overflows the field
// rather than silently aliasing.
const (
	keyValid    = uint64(1) << 63
	keySizeLsb  = 61
	keyCtxLsb   = 45
	keyVPNLimit = vm.VPNLimit
	// The VPN field must fit below the context field.
	_ = uint64(1)<<keyCtxLsb - keyVPNLimit
)

// keyFor builds the packed comparison key of a live entry.
func keyFor(ctx vm.ContextID, size vm.PageSize, vpn uint64) uint64 {
	if vpn >= keyVPNLimit {
		panic("tlb: VPN overflows packed key")
	}
	return keyValid | uint64(size)<<keySizeLsb | uint64(ctx)<<keyCtxLsb | vpn
}

// Config describes a TLB array.
type Config struct {
	Name    string
	Entries int           // total entry count
	Ways    int           // associativity; Ways >= Entries means fully associative
	Sizes   []vm.PageSize // page sizes this array can hold
	// IndexHash folds high VPN bits into the set index. Distributed
	// shared slices need it: slice selection consumes low address bits,
	// so plain modulo indexing inside a slice would alias entire page
	// ranges onto a few sets.
	IndexHash bool
}

// TLB is a set-associative translation array. Entries of different page
// sizes coexist in the same physical array (Haswell's unified L2 TLB holds
// 4K and 2M translations concurrently); lookups probe once per supported
// size, as skewed/unified TLBs do in hardware.
type TLB struct {
	cfg Config
	// The entries are three parallel arrays, each holding all sets
	// contiguously, set-major: set s spans [s*ways, (s+1)*ways) of each.
	// Flat arrays keep a whole set on adjacent cache lines and remove the
	// per-set pointer chase of a slice-of-slices layout — Lookup and
	// Insert are the hottest flat CPU in the simulator's profile — and
	// splitting the fields lets each scan read only the words it needs.
	//
	// keys[i] is way i's packed key (valid bit, size, context, VPN), or
	// zero when invalid. It is the only record of validity: the
	// invalidation paths and Flush zero keys and never touch pfn or lru,
	// and every scan (lookup, victim choice, occupancy) tests
	// keys[i] != 0. A whole 4-way set costs half a 64-byte line.
	keys []uint64
	// pfn[i] is way i's frame number; a lookup reads it only on a hit.
	pfn []uint64
	// lru[i] is the tick of way i's last hit or insert; the victim scan
	// in Insert reads it beside keys.
	lru     []uint64
	ways    int
	nsets   uint64
	setMask uint64 // nsets-1 when nsets is a power of two, else 0
	tick    uint64
	sizes   []vm.PageSize
}

// New returns an empty TLB. Entries must be divisible into power-of-two
// sets by Ways (after clamping Ways to Entries); New panics on a malformed
// geometry since that is a configuration bug.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 {
		panic("tlb: Entries must be positive")
	}
	ways := cfg.Ways
	if ways <= 0 || ways > cfg.Entries {
		ways = cfg.Entries
	}
	nsets := cfg.Entries / ways
	if nsets*ways != cfg.Entries {
		panic(fmt.Sprintf("tlb: %d entries not divisible by %d ways", cfg.Entries, ways))
	}
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		sizes = []vm.PageSize{vm.Page4K}
	}
	t := &TLB{
		cfg:   cfg,
		keys:  make([]uint64, nsets*ways),
		pfn:   make([]uint64, nsets*ways),
		lru:   make([]uint64, nsets*ways),
		ways:  ways,
		nsets: uint64(nsets),
		sizes: sizes,
	}
	if nsets&(nsets-1) == 0 {
		t.setMask = uint64(nsets - 1)
	}
	return t
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// Sets reports the number of sets.
func (t *TLB) Sets() int { return int(t.nsets) }

// setFor returns the set index for a page number. The paper's design uses
// simple modulo indexing on low-order VPN bits (Section III-E); with
// IndexHash the higher bits are XOR-folded in first.
func (t *TLB) setFor(vpn uint64) uint64 {
	if t.cfg.IndexHash {
		vpn ^= vpn >> 13
		vpn ^= vpn >> 7
	}
	if t.setMask != 0 || t.nsets == 1 {
		return vpn & t.setMask
	}
	return vpn % t.nsets
}

// findWay scans the packed keys of the set starting at base for key and
// returns the matching way, or -1; it reads keys only. At most one way
// matches (Insert refreshes duplicates in place).
// A branch-free compare-all-then-select variant of this scan (accumulate
// per-way equality bits into a mask, pick with bits.TrailingZeros64) was
// benchmarked in BenchmarkLookup* and lost to the early exit on both hit
// and miss: with ≤8 single-word keys per set the whole block is one or
// two cache lines either way, and the predictable early exit saves the
// mask bookkeeping. Lookup repeats this body inline — keep them in sync.
func (t *TLB) findWay(base int, key uint64) int {
	keys := t.keys[base : base+t.ways]
	for w := 0; w < len(keys); w++ {
		if keys[w] == key {
			return w
		}
	}
	return -1
}

// Lookup probes the array for the translation of va in context ctx,
// trying every supported page size. It returns the hit's frame and page
// size.
//
// This is the hottest function in the simulator — every memory reference
// probes three L1 arrays through it — so the findWay scan is repeated
// inline here: the compiler does not inline functions with loops, and an
// outlined call per size costs more than the whole scan of a 4-way set,
// which touches at most two cache lines of packed keys. A miss reads
// nothing else; a hit writes one lru word and reads one pfn word.
func (t *TLB) Lookup(ctx vm.ContextID, va vm.VirtAddr) (Entry, bool) {
	t.tick++
	for _, size := range t.sizes {
		vpn := va.VPN(size)
		key := keyValid | uint64(size)<<keySizeLsb | uint64(ctx)<<keyCtxLsb | vpn
		base := int(t.setFor(vpn)) * t.ways
		keys := t.keys[base : base+t.ways]
		for w := 0; w < len(keys); w++ {
			if keys[w] == key {
				t.lru[base+w] = t.tick
				return Entry{PFN: t.pfn[base+w], Size: size}, true
			}
		}
	}
	return Entry{}, false
}

// Probe reports whether the translation is present without touching LRU
// state (used by invariants and shootdown checks).
func (t *TLB) Probe(ctx vm.ContextID, vpn uint64, size vm.PageSize) bool {
	base := int(t.setFor(vpn)) * t.ways
	return t.findWay(base, keyFor(ctx, size, vpn)) >= 0
}

// Insert installs a translation, replacing the set's LRU entry when full.
// Inserting an already-present translation refreshes it in place. It
// reports whether a valid entry was evicted. The victim is the last
// invalid way if the set has one, else the valid way with the oldest
// tick; the scan reads only keys and lru.
func (t *TLB) Insert(ctx vm.ContextID, vpn uint64, size vm.PageSize, pfn uint64) bool {
	t.tick++
	base := int(t.setFor(vpn)) * t.ways
	key := keyFor(ctx, size, vpn)
	keys := t.keys[base : base+t.ways]
	lru := t.lru[base : base+len(keys)]
	victim := 0
	for i := range keys {
		if keys[i] == key {
			t.pfn[base+i] = pfn
			lru[i] = t.tick
			return false
		}
		if keys[i] == 0 {
			victim = i
			// Keep scanning: the entry might exist in a later way.
			continue
		}
		if keys[victim] != 0 && lru[i] < lru[victim] {
			victim = i
		}
	}
	evicted := keys[victim] != 0
	keys[victim] = key
	t.pfn[base+victim] = pfn
	lru[victim] = t.tick
	return evicted
}

// InvalidatePage removes the translation of (ctx, vpn, size) if present,
// reporting whether an entry was invalidated.
func (t *TLB) InvalidatePage(ctx vm.ContextID, vpn uint64, size vm.PageSize) bool {
	base := int(t.setFor(vpn)) * t.ways
	w := t.findWay(base, keyFor(ctx, size, vpn))
	if w < 0 {
		return false
	}
	t.keys[base+w] = 0
	return true
}

// Burst is a batch of page invalidations delivered together: one context,
// one page size, and every page inside one aligned window of burstPages
// pages. At 4 KB that window is a 2 MB region, the shape of a superpage
// promotion's shootdown. Build one with Add; the zero Burst is empty.
type Burst struct {
	Ctx  vm.ContextID
	Size vm.PageSize
	Base uint64                  // first VPN of the window, a multiple of burstPages
	Mask [burstPages / 64]uint64 // bit i set: VPN Base+i is invalidated
}

// burstPages is a Burst's window: the 4 KB pages of one 2 MB superpage.
const burstPages = 512

// Add folds inv into the burst, reporting false and leaving the burst
// unchanged when inv does not fit: another context, page size or
// window. An empty burst takes any invalidation.
func (b *Burst) Add(inv vm.Invalidation) bool {
	window := inv.VPN &^ (burstPages - 1)
	switch {
	case b.Mask == [len(b.Mask)]uint64{}:
		*b = Burst{Ctx: inv.Ctx, Size: inv.Size, Base: window}
	case inv.Ctx != b.Ctx || inv.Size != b.Size || window != b.Base:
		return false
	}
	off := inv.VPN - window
	b.Mask[off/64] |= 1 << (off % 64)
	return true
}

// Pages reports how many distinct pages the burst names.
func (b *Burst) Pages() int {
	n := 0
	for _, w := range b.Mask {
		n += bits.OnesCount64(w)
	}
	return n
}

// InvalidateBurst removes every translation the burst names, returning
// the number removed. It removes exactly the entries that one
// InvalidatePage per page would. The array picks the cheaper exact
// strategy itself: a burst of fewer pages than the array has sets
// is probed page by page (pages × ways key compares, below one pass),
// and a larger one is found in a single pass over the packed keys. In
// that pass a key belongs to the burst when its bits above the window
// offset equal the window's own key, and its offset's Mask bit is set.
func (t *TLB) InvalidateBurst(b *Burst) int {
	n := 0
	if uint64(b.Pages()) < t.nsets {
		for w, word := range b.Mask {
			for word != 0 {
				vpn := b.Base + uint64(w*64+bits.TrailingZeros64(word))
				word &= word - 1
				if t.InvalidatePage(b.Ctx, vpn, b.Size) {
					n++
				}
			}
		}
		return n
	}
	window := keyFor(b.Ctx, b.Size, b.Base)
	for i, k := range t.keys {
		if k&^(burstPages-1) != window {
			continue
		}
		if off := k & (burstPages - 1); b.Mask[off/64]&(1<<(off%64)) != 0 {
			t.keys[i] = 0
			n++
		}
	}
	return n
}

// Flush removes everything, returning the number of entries dropped.
func (t *TLB) Flush() int {
	n := t.Occupancy()
	clear(t.keys)
	return n
}

// Apply executes a vm.Invalidation against this array, returning the
// number of entries removed.
func (t *TLB) Apply(inv vm.Invalidation) int {
	if t.InvalidatePage(inv.Ctx, inv.VPN, inv.Size) {
		return 1
	}
	return 0
}

// Occupancy reports the number of valid entries.
func (t *TLB) Occupancy() int {
	n := 0
	for _, k := range t.keys {
		if k != 0 {
			n++
		}
	}
	return n
}
