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

// Cache is a single set-associative level.
type Cache struct {
	cfg     Config
	sets    [][]line
	setMask uint64
	tick    uint64

	hits, misses uint64
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
	sets := make([][]line, cfg.Sets)
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &Cache{cfg: cfg, sets: sets, setMask: uint64(cfg.Sets - 1)}
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// index splits a physical address into set index and tag.
func (c *Cache) index(pa vm.PhysAddr) (uint64, uint64) {
	lineAddr := uint64(pa) / LineBytes
	return lineAddr & c.setMask, lineAddr >> 0 // full line address as tag is fine
}

// Lookup probes the cache without modifying contents except LRU state.
// It reports whether the line is present.
func (c *Cache) Lookup(pa vm.PhysAddr) bool {
	set, tag := c.index(pa)
	c.tick++
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.lru = c.tick
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Insert fills the line for pa, evicting the set's LRU way if needed.
func (c *Cache) Insert(pa vm.PhysAddr) {
	set, tag := c.index(pa)
	c.tick++
	victim := 0
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.lru = c.tick
			return
		}
		if !l.valid {
			victim = i
			break
		}
		if c.sets[set][i].lru < c.sets[set][victim].lru {
			victim = i
		}
	}
	c.sets[set][victim] = line{valid: true, tag: tag, lru: c.tick}
}

// EvictRandomLines invalidates up to n lines starting from a deterministic
// sweep position, modeling pollution pressure from foreign fills.
func (c *Cache) EvictRandomLines(n int) {
	for i := 0; i < n; i++ {
		set := (c.tick + uint64(i)) & c.setMask
		way := int(c.tick+uint64(i)) % c.cfg.Ways
		c.sets[set][way].valid = false
	}
	c.tick += uint64(n)
}

// Flush invalidates the whole cache.
func (c *Cache) Flush() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.sets[s][w] = line{}
		}
	}
}

// Stats reports hits and misses since construction.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Hierarchy is an inclusive multi-level cache backed by memory.
type Hierarchy struct {
	levels     []*Cache
	memLatency int

	accesses  uint64
	levelHits []uint64
	memFills  uint64
}

// NewHierarchy builds a hierarchy from inner to outer level configs.
// memLatency is the flat miss-to-memory latency.
func NewHierarchy(memLatency int, cfgs ...Config) *Hierarchy {
	h := &Hierarchy{memLatency: memLatency}
	for _, cfg := range cfgs {
		h.levels = append(h.levels, New(cfg))
	}
	h.levelHits = make([]uint64, len(h.levels))
	return h
}

// NewHierarchyFromLevels builds a hierarchy over existing caches, which
// may be shared with other hierarchies — the chip's LLC is one physical
// structure that every core's walker fills and hits.
func NewHierarchyFromLevels(memLatency int, levels ...*Cache) *Hierarchy {
	h := &Hierarchy{memLatency: memLatency, levels: levels}
	h.levelHits = make([]uint64, len(levels))
	return h
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
			h.levelHits[i]++
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

// Level returns the i-th cache (0 = innermost).
func (h *Hierarchy) Level(i int) *Cache { return h.levels[i] }

// MemLatency returns the backing-memory latency.
func (h *Hierarchy) MemLatency() int { return h.memLatency }

// Stats reports total accesses, hits per level, and memory fills.
func (h *Hierarchy) Stats() (accesses uint64, levelHits []uint64, memFills uint64) {
	out := make([]uint64, len(h.levelHits))
	copy(out, h.levelHits)
	return h.accesses, out, h.memFills
}

// Flush empties every level.
func (h *Hierarchy) Flush() {
	for _, c := range h.levels {
		c.Flush()
	}
}

// Pollute models foreign fills displacing resident lines in the two inner
// levels, the effect the paper attributes to performing page walks at the
// remote core ("it pollutes the local cache of the remote core").
func (h *Hierarchy) Pollute(lines int) {
	for i, c := range h.levels {
		if i >= 2 {
			break
		}
		c.EvictRandomLines(lines)
	}
}

// ResetStats zeroes hit/miss counts without touching contents.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// ResetStats zeroes the hierarchy's aggregate counters and each level's
// hit/miss counts. Levels may be shared between hierarchies (the LLC);
// resetting a shared level twice is harmless.
func (h *Hierarchy) ResetStats() {
	h.accesses, h.memFills = 0, 0
	for i := range h.levelHits {
		h.levelHits[i] = 0
	}
	for _, c := range h.levels {
		c.ResetStats()
	}
}
