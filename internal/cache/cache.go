// Package cache models a latency-oriented set-associative cache hierarchy.
//
// The TLB studies use it for one purpose the paper calls out explicitly:
// page-table walks have *variable* latency because page-table entries live
// in the regular cache hierarchy (L1 4 cycles, L2 12 cycles, LLC 50
// cycles, then memory). The walker probes this hierarchy per level, which
// reproduces the paper's observation that 70-87 % of walks reach the LLC
// or memory for the leaf PTE while upper levels mostly hit.
package cache

import "nocstar/internal/vm"

// LineBytes is the cache line size; PTEs are 8 bytes, so one line holds 8.
const LineBytes = 64

// Config describes one cache level.
type Config struct {
	Name       string
	Sets       int // must be a power of two
	Ways       int
	HitLatency int // total load-to-use latency of a hit at this level
}

// line is one cache line's bookkeeping.
type line struct {
	valid bool
	tag   uint64
	lru   uint64
}

// Cache is a single set-associative level. Its lines are one set-major
// slice: set s is lines[s*Ways : (s+1)*Ways], so they are one
// allocation however many sets there are.
type Cache struct {
	cfg     Config
	lines   []line
	setMask uint64
	tick    uint64
}

// New returns an empty cache. Sets must be a power of two and Ways
// positive; New panics otherwise, since a malformed cache is a
// configuration bug, not a runtime condition.
func New(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic("cache: Sets must be a positive power of two")
	}
	if cfg.Ways <= 0 {
		panic("cache: Ways must be positive")
	}
	return &Cache{cfg: cfg, lines: make([]line, cfg.Sets*cfg.Ways), setMask: uint64(cfg.Sets - 1)}
}

// set returns the ways of set s.
func (c *Cache) set(s uint64) []line {
	w := uint64(c.cfg.Ways)
	return c.lines[s*w : (s+1)*w]
}

// index splits a physical address into set index and tag.
func (c *Cache) index(pa vm.PhysAddr) (uint64, uint64) {
	lineAddr := uint64(pa) / LineBytes
	return lineAddr & c.setMask, lineAddr >> 0 // full line address as tag is fine
}

// Lookup probes the cache without modifying contents except LRU state.
// It reports whether the line is present.
func (c *Cache) Lookup(pa vm.PhysAddr) bool {
	s, tag := c.index(pa)
	c.tick++
	set := c.set(s)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.lru = c.tick
			return true
		}
	}
	return false
}

// Insert fills the line for pa, evicting the set's LRU way if needed.
func (c *Cache) Insert(pa vm.PhysAddr) {
	s, tag := c.index(pa)
	c.tick++
	set := c.set(s)
	victim := 0
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.lru = c.tick
			return
		}
		if !l.valid {
			victim = i
			break
		}
		if l.lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{valid: true, tag: tag, lru: c.tick}
}

// EvictRandomLines invalidates up to n lines starting from a deterministic
// sweep position, modeling pollution pressure from foreign fills.
func (c *Cache) EvictRandomLines(n int) {
	for i := 0; i < n; i++ {
		set := (c.tick + uint64(i)) & c.setMask
		way := int(c.tick+uint64(i)) % c.cfg.Ways
		c.set(set)[way].valid = false
	}
	c.tick += uint64(n)
}

// Hierarchy is an inclusive multi-level cache backed by memory.
type Hierarchy struct {
	levels     []*Cache
	memLatency int

	accesses uint64
	memFills uint64
}

// NewHierarchy builds a hierarchy from inner to outer level configs.
// memLatency is the flat miss-to-memory latency.
func NewHierarchy(memLatency int, cfgs ...Config) *Hierarchy {
	h := &Hierarchy{memLatency: memLatency}
	for _, cfg := range cfgs {
		h.levels = append(h.levels, New(cfg))
	}
	return h
}

// NewHierarchyFromLevels builds a hierarchy over existing caches, which
// may be shared with other hierarchies — the chip's LLC is one physical
// structure that every core's walker fills and hits.
func NewHierarchyFromLevels(memLatency int, levels ...*Cache) *Hierarchy {
	return &Hierarchy{memLatency: memLatency, levels: levels}
}

// DefaultHierarchy returns the paper's Haswell memory system for one core:
// 32 KB 8-way L1 (4 cycles), 256 KB 8-way L2 (12 cycles), 8 MB LLC slice
// (50 cycles), 200-cycle memory.
func DefaultHierarchy() *Hierarchy {
	return NewHierarchy(200,
		Config{Name: "L1", Sets: 64, Ways: 8, HitLatency: 4},
		Config{Name: "L2", Sets: 512, Ways: 8, HitLatency: 12},
		Config{Name: "LLC", Sets: 8192, Ways: 16, HitLatency: 50},
	)
}

// WalkerHierarchy returns the memory system as the page-table walker sees
// it: PTE fetches contend with the data working set, which owns the L1D
// and the bulk of the L2, so walker references see a small effective L2
// share (64 KB), then the LLC (50 cycles), then memory. This keeps
// realistic walk latencies in the band the paper observes — 20-40 cycles
// for well-cached upper levels, with 70-87 % of leaf PTEs served from the
// LLC or memory.
func WalkerHierarchy() *Hierarchy {
	return WalkerHierarchyWithLLC(New(LLCConfig()))
}

// LLCConfig is the shared last-level cache: 8 MB, 16-way, 50 cycles.
func LLCConfig() Config {
	return Config{Name: "LLC", Sets: 8192, Ways: 16, HitLatency: 50}
}

// WalkerHierarchyWithLLC builds one core's walker view over a shared LLC
// instance: PTE lines one core's walker fetched serve every other core.
// The walker's effective L2 share is tiny (64 lines): under real data
// pressure, by the time a translation has aged out of a 1024-entry L2
// TLB its PTE line has long been evicted from the L2, so TLB misses
// fetch their leaf PTE from the LLC or memory — the paper's observed
// 70-87 %.
func WalkerHierarchyWithLLC(llc *Cache) *Hierarchy {
	return NewHierarchyFromLevels(200,
		New(Config{Name: "L2", Sets: 8, Ways: 8, HitLatency: 12}),
		llc,
	)
}

// Access loads pa through the hierarchy: it returns the latency of the
// access and the level index that served it (len(levels) means memory).
// Misses fill every level on the way back (inclusive).
func (h *Hierarchy) Access(pa vm.PhysAddr) (latency int, servedBy int) {
	h.accesses++
	for i, c := range h.levels {
		if c.Lookup(pa) {
			// Fill inner levels (they missed).
			for j := 0; j < i; j++ {
				h.levels[j].Insert(pa)
			}
			return c.cfg.HitLatency, i
		}
	}
	h.memFills++
	for _, c := range h.levels {
		c.Insert(pa)
	}
	return h.memLatency, len(h.levels)
}

// Levels reports the number of cache levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// Stats reports total accesses and memory fills.
func (h *Hierarchy) Stats() (accesses, memFills uint64) {
	return h.accesses, h.memFills
}

// Pollute models foreign fills displacing resident lines in the two inner
// levels, the effect the paper attributes to performing page walks at the
// remote core ("it pollutes the local cache of the remote core"). On a
// walker view, whose levels are [8-set L2, shared LLC], the second of
// them is the chip-wide LLC, so the eviction reaches it too.
func (h *Hierarchy) Pollute(lines int) {
	for i, c := range h.levels {
		if i >= 2 {
			break
		}
		c.EvictRandomLines(lines)
	}
}
