// Package ptw implements the page-table walker. Walk latency is the
// paper's key sensitivity knob (Table III): in "variable" mode each
// page-table level is fetched through the core's cache hierarchy, so
// latency depends on where the PTEs reside (the realistic configuration);
// in "fixed-N" mode every walk costs N cycles.
//
// A small page-walk cache (MMU cache, [Bhattacharjee, MICRO 2013], the
// paper's reference [28]) short-circuits the upper levels, which is what
// keeps realistic walks in the paper's observed 20-40 cycle band while
// 70-87 % of walks still reach the LLC or memory for the leaf PTE.
package ptw

import (
	"nocstar/internal/cache"
	"nocstar/internal/engine"
	"nocstar/internal/vm"
)

// Mode selects the walk-latency model.
type Mode int

const (
	// Variable walks fetch each level through the cache hierarchy.
	Variable Mode = iota
	// Fixed walks cost Config.FixedLatency cycles flat.
	Fixed
)

// Config configures a walker.
type Config struct {
	Mode         Mode
	FixedLatency int // used when Mode == Fixed
}

// The walker's geometry is the paper's Haswell-class MMU, which no
// experiment varies.
const (
	// pwcEntries sizes a Variable-mode walker's page-walk cache.
	pwcEntries = 32
	// walkOverhead is the fixed per-walk cost in Variable mode beyond the
	// PTE fetches themselves: miss-handler dispatch, walker occupancy,
	// the TLB fill, and the pipeline restart after the translation stall.
	walkOverhead = 15
	// walkSlots is the number of concurrent page walks the unit
	// supports; additional walks queue.
	walkSlots = 2
)

// DefaultConfig returns the realistic configuration: variable latency
// through the cache hierarchy and the page-walk cache.
func DefaultConfig() Config {
	return Config{Mode: Variable}
}

// Stats aggregates walker behaviour.
type Stats struct {
	Walks       uint64
	TotalCycles uint64
	QueueCycles uint64
	PWCHits     uint64
	// LeafFromLLCOrMem counts walks whose leaf PTE came from the LLC or
	// memory — the paper reports 70-87 % on its baseline.
	LeafFromLLCOrMem uint64
	// MemRefsByLevel counts PTE fetches by the semantic level that
	// served them — L1, L2, LLC, memory — regardless of the walker
	// hierarchy's depth, for the energy model.
	MemRefsByLevel [4]uint64
}

// AvgCycles reports mean walk latency excluding queueing.
func (s Stats) AvgCycles() float64 {
	if s.Walks == 0 {
		return 0
	}
	return float64(s.TotalCycles) / float64(s.Walks)
}

// LeafLLCOrMemFraction reports the fraction of walks whose leaf PTE
// required an LLC or memory access.
func (s Stats) LeafLLCOrMemFraction() float64 {
	if s.Walks == 0 {
		return 0
	}
	return float64(s.LeafFromLLCOrMem) / float64(s.Walks)
}

// pwcKey identifies a cached upper-level walk: one PDPT-entry reach
// (1 GB of VA) per entry.
type pwcKey struct {
	ctx    vm.ContextID
	prefix uint64 // va >> 30
}

// Walker performs page-table walks for one core. It serves walkSlots
// walks at a time; further requests queue (the paper's remote-walk policy
// discussion notes walker congestion as the key risk).
type Walker struct {
	cfg   Config
	hier  *cache.Hierarchy
	slots [walkSlots]engine.Cycle // per-concurrent-walk busy-until times

	pwc      map[pwcKey]struct{} // nil in Fixed mode
	pwcOrder [pwcEntries]pwcKey  // FIFO eviction ring
	pwcNext  int

	stats Stats
}

// New returns a walker that fetches PTEs through hier. hier must be
// non-nil in Variable mode, where the walker has its page-walk cache.
func New(cfg Config, hier *cache.Hierarchy) *Walker {
	w := &Walker{cfg: cfg, hier: hier}
	if cfg.Mode == Variable {
		if hier == nil {
			panic("ptw: Variable mode requires a cache hierarchy")
		}
		w.pwc = make(map[pwcKey]struct{}, pwcEntries)
	}
	return w
}

// Stats returns a copy of the accumulated statistics.
func (w *Walker) Stats() Stats { return w.stats }

// pwcLookup reports whether the upper levels for va are cached, and
// caches them if not.
func (w *Walker) pwcLookup(ctx vm.ContextID, va vm.VirtAddr) bool {
	if w.pwc == nil {
		return false
	}
	key := pwcKey{ctx: ctx, prefix: uint64(va) >> 30}
	if _, ok := w.pwc[key]; ok {
		return true
	}
	// FIFO-evict into the ring slot.
	old := w.pwcOrder[w.pwcNext]
	if _, ok := w.pwc[old]; ok {
		delete(w.pwc, old)
	}
	w.pwcOrder[w.pwcNext] = key
	w.pwcNext = (w.pwcNext + 1) % pwcEntries
	w.pwc[key] = struct{}{}
	return false
}

// InvalidatePWC flushes the page-walk cache (shootdowns and context
// switches must not leave stale upper-level pointers).
func (w *Walker) InvalidatePWC() {
	if w.pwc == nil {
		return
	}
	clear(w.pwc)
	w.pwcOrder = [pwcEntries]pwcKey{}
}

// Walk performs the page-table walk for va in space as, starting at
// cycle now. It returns the total latency including any queueing behind
// an in-flight walk, and the walk result. ok is false if va is unmapped
// (the caller demand-maps first, so this indicates a model bug upstream).
func (w *Walker) Walk(now engine.Cycle, as *vm.AddressSpace, va vm.VirtAddr) (total int, res vm.WalkResult, ok bool) {
	res, ok = as.PT.Walk(va)
	if !ok {
		return 0, res, false
	}

	// Dispatch to the earliest-free walker slot.
	slot := 0
	for i, busy := range w.slots {
		if busy < w.slots[slot] {
			slot = i
		}
	}
	queue := 0
	if w.slots[slot] > now {
		queue = int(w.slots[slot] - now)
	}

	var walk int
	switch w.cfg.Mode {
	case Fixed:
		walk = w.cfg.FixedLatency
	case Variable:
		walk = walkOverhead + w.variableLatency(as.Ctx, va, res)
	}

	w.stats.Walks++
	w.stats.TotalCycles += uint64(walk)
	w.stats.QueueCycles += uint64(queue)
	w.slots[slot] = now + engine.Cycle(queue+walk)
	return queue + walk, res, true
}

// variableLatency charges the cache hierarchy for each level the walk
// touches, honouring the page-walk cache.
func (w *Walker) variableLatency(ctx vm.ContextID, va vm.VirtAddr, res vm.WalkResult) int {
	first := 0
	if w.pwcLookup(ctx, va) {
		w.stats.PWCHits++
		// Upper two levels (PML4, PDPT) are cached; start at the PD.
		first = 2
		if first > res.Levels-1 {
			first = res.Levels - 1
		}
	}
	// Map the hierarchy's level indices to the semantic L1/L2/LLC/memory
	// buckets: a 2-level walker view (L2 share + LLC) starts at L2.
	offset := 3 - w.hier.Levels()
	if offset < 0 {
		offset = 0
	}
	total := 0
	for i := first; i < res.Levels; i++ {
		lat, lvl := w.hier.Access(res.PTEAddrs[i])
		total += lat
		w.stats.MemRefsByLevel[min(lvl+offset, 3)]++
		if i == res.Levels-1 && lvl >= w.hier.Levels()-1 {
			w.stats.LeafFromLLCOrMem++
		}
	}
	return total
}
