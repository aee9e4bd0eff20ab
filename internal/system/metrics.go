package system

import (
	"nocstar/internal/engine"
	"nocstar/internal/metrics"
)

// sysMetrics holds the typed handles of every hot-path metric. All
// registration happens in initMetrics (called from New); the handles are
// incremented directly on the translation critical path, which stays
// allocation-free — the alloc-regression suite pins that with the
// registry attached.
type sysMetrics struct {
	memRefs    *metrics.Counter // sys.mem_refs
	l1Misses   *metrics.Counter // tlb.l1_misses
	l2Accesses *metrics.Counter // tlb.l2_accesses
	l2Hits     *metrics.Counter // tlb.l2_hits
	l2Misses   *metrics.Counter // tlb.l2_misses
	localSlice *metrics.Counter // tlb.local_slice
	remote     *metrics.Counter // tlb.remote_accesses
	prefetches *metrics.Counter // tlb.prefetch_inserts
	walks      *metrics.Counter // vm.walks
	shootdowns *metrics.Counter // vm.shootdowns

	hitLat  *metrics.Hist // tlb.l2_hit_cycles: full access window, hits only
	netLat  *metrics.Hist // net.round_trip_cycles: mesh/SMART round trips
	walkLat *metrics.Hist // ptw.walk_cycles
	invLat  *metrics.Hist // vm.inv_burst_size: invalidations per shootdown burst

	// Filled once at collect() time from the engine, walker, and cache
	// layers, which keep their own internal accounting.
	engEvents    *metrics.Counter // engine.events
	engCycles    *metrics.Counter // engine.cycles
	ptwQueue     *metrics.Counter // ptw.queue_cycles
	ptwPWCHits   *metrics.Counter // ptw.pwc_hits
	ptwLeafLLC   *metrics.Counter // ptw.leaf_from_llc_or_mem
	cacheAccess  *metrics.Counter // cache.walk_accesses
	cacheMemFill *metrics.Counter // cache.mem_fills
}

// invBurstBounds buckets shootdown burst sizes (invalidations per burst).
var invBurstBounds = []uint64{1, 2, 4, 8, 16, 32, 64, 128}

// newSysMetrics registers every metric in reg, in the canonical order.
func newSysMetrics(reg *metrics.Registry) sysMetrics {
	var m sysMetrics
	m.memRefs = reg.Counter("sys.mem_refs")
	m.l1Misses = reg.Counter("tlb.l1_misses")
	m.l2Accesses = reg.Counter("tlb.l2_accesses")
	m.l2Hits = reg.Counter("tlb.l2_hits")
	m.l2Misses = reg.Counter("tlb.l2_misses")
	m.localSlice = reg.Counter("tlb.local_slice")
	m.remote = reg.Counter("tlb.remote_accesses")
	m.prefetches = reg.Counter("tlb.prefetch_inserts")
	m.walks = reg.Counter("vm.walks")
	m.shootdowns = reg.Counter("vm.shootdowns")
	m.hitLat = reg.Hist("tlb.l2_hit_cycles", nil)
	m.netLat = reg.Hist("net.round_trip_cycles", nil)
	m.walkLat = reg.Hist("ptw.walk_cycles", nil)
	m.invLat = reg.Hist("vm.inv_burst_size", invBurstBounds)
	m.engEvents = reg.Counter("engine.events")
	m.engCycles = reg.Counter("engine.cycles")
	m.ptwQueue = reg.Counter("ptw.queue_cycles")
	m.ptwPWCHits = reg.Counter("ptw.pwc_hits")
	m.ptwLeafLLC = reg.Counter("ptw.leaf_from_llc_or_mem")
	m.cacheAccess = reg.Counter("cache.walk_accesses")
	m.cacheMemFill = reg.Counter("cache.mem_fills")
	return m
}

// initMetrics builds the run's registry and registers every metric.
func (s *System) initMetrics() {
	s.reg = metrics.NewRegistry()
	s.m = newSysMetrics(s.reg)
}

// Metrics exposes the run's registry (for tests and external wiring).
func (s *System) Metrics() *metrics.Registry { return s.reg }

// SetTracer attaches an event tracer to the system and its NOCSTAR
// fabric (nil detaches). Call before the run starts; the hot paths guard
// every emit with a nil check.
func (s *System) SetTracer(tr *metrics.Tracer) {
	s.tracer = tr
	if s.fabric != nil {
		s.fabric.SetTracer(tr)
	}
}

// RunWithTracer is Run with an event tracer attached for the whole run.
// The tracer is deliberately not part of Config: configs are compared and
// formatted as values by the experiment cache.
func RunWithTracer(cfg Config, tr *metrics.Tracer) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	s.SetTracer(tr)
	return s.run()
}

// noteHit closes a hit's latency accounting: the access window ran from
// x.start through done (lookup + network + queueing).
func (s *System) noteHit(x *xact, done engine.Cycle) {
	s.m.hitLat.Observe(uint64(done - x.start))
	if s.tracer != nil {
		s.tracer.Emit(metrics.TraceL2Hit, uint64(x.start), uint64(done-x.start),
			int32(x.th.core.id), int32(x.slice))
	}
}

// noteMiss records a shared-L2 miss decided for x.
func (s *System) noteMiss(x *xact) {
	s.m.l2Misses.Inc()
	if s.tracer != nil {
		s.tracer.Emit(metrics.TraceL2Miss, uint64(x.start), 0,
			int32(x.th.core.id), int32(x.slice))
	}
}

// collectLayerMetrics folds the engine's, walkers', and cache
// hierarchies' own accounting into the registry, once, after the run
// drains.
func (s *System) collectLayerMetrics() {
	s.m.engEvents.Add(s.eng.Processed())
	s.m.engCycles.Add(uint64(s.eng.Now()))
	for _, c := range s.cores {
		w := c.walker.Stats()
		s.m.ptwQueue.Add(w.QueueCycles)
		s.m.ptwPWCHits.Add(w.PWCHits)
		s.m.ptwLeafLLC.Add(w.LeafFromLLCOrMem)
		acc, fills := c.hier.Stats()
		s.m.cacheAccess.Add(acc)
		s.m.cacheMemFill.Add(fills)
	}
}
