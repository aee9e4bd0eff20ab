package system

import (
	"context"
	"fmt"

	"nocstar/internal/cache"
	"nocstar/internal/check"
	"nocstar/internal/energy"
	"nocstar/internal/engine"
	"nocstar/internal/metrics"
	"nocstar/internal/noc"
	"nocstar/internal/ptw"
	"nocstar/internal/sram"
	"nocstar/internal/stats"
	"nocstar/internal/tlb"
	"nocstar/internal/vm"
	"nocstar/internal/workload"
)

// core is one tile: a core with its L1 TLBs, page-table walker, and cache
// hierarchy, co-located with its private L2 TLB or a shared-TLB slice.
type core struct {
	id     int
	node   noc.NodeID
	l1     *tlb.L1Group
	walker *ptw.Walker
	hier   *cache.Hierarchy
}

// l2port is one port of a last-level TLB array. The organizations of
// Fig. 1 differ only in where the array sits, how many ports front it
// and how requests reach it: Private has one port per core's L2 TLB,
// the monolithic organizations one port per bank over one shared array,
// and the shared organizations one port per slice. A port is the unit of
// contention: lookups, insert messages, shootdowns and context-switch
// flushes all occupy it.
type l2port struct {
	tlb  *tlb.TLB     // the array behind the port
	free engine.Cycle // the port's next free cycle (its horizon)
	// charge accumulates one shootdown's port charges;
	// deliverInvalidations zeroes it as it applies it.
	charge int
	idx    int        // index in System.ports
	node   noc.NodeID // the tile the port sits on
}

// app is one running application.
type app struct {
	cfg     App
	idx     int
	as      *vm.AddressSpace
	regions []workload.Region
	// superLimit[i] is the page index within regions[i] below which the
	// OS backs the range with transparent 2 MB pages.
	superLimit []uint64

	instrDone uint64
	finish    engine.Cycle
}

// thread is one (hyper)thread's execution state.
type thread struct {
	app  *app
	core *core
	gen  workload.Stream

	// Batched reference generation: buf is refilled a slice at a time
	// and the hot loop consumes it by index bump; bufPos..bufLen is the
	// unconsumed window.
	buf    []vm.VirtAddr
	bufPos int
	bufLen int

	refsTotal    uint64 // workload length, for end-of-run reconciliation
	refsLeft     uint64
	cyclesPerRef float64
	carry        float64
	stall        uint64
	finished     bool
}

// threadBatchSize is how many references one refill pregenerates.
// Refills are clamped to refsLeft so a stream is never drawn past the
// configured workload length: no reference is generated that the run
// does not consume, and a caller's stream (a trace replayer) is left at
// the reference after the run's last, whatever the batch size. At 256
// references (2 KiB) a refill's call is still spread over hundreds of
// references, and a 1024-core system's buffers take 2 MiB, not 8.
const threadBatchSize = 256

// System is one configured machine mid-run.
type System struct {
	cfg Config
	eng *engine.Engine
	geo noc.Geometry
	rng *engine.Rand

	cores   []*core
	apps    []*app
	threads []*thread

	// Last-level TLB: the ports in index order (core, bank or slice
	// number), and each distinct array behind them once.
	ports  []l2port
	arrays []*tlb.TLB
	l2Lat  int          // cycles from a port claim to the lookup's result
	l2Busy engine.Cycle // cycles one lookup holds its port

	fabric *noc.Nocstar

	// Live accounting. The named counters and latency histograms that
	// used to be loose uint64 fields live in the metrics registry; m
	// holds their typed handles for direct hot-path increments.
	outstanding int
	sliceOut    []int
	conc        stats.ConcurrencyHist
	sliceConc   stats.ConcurrencyHist
	reg         *metrics.Registry
	m           sysMetrics
	tracer      *metrics.Tracer
	meter       energy.Meter

	threadsLive int

	// check is the optional invariant checker (Config.Check). Nil in
	// normal runs: every hot-path hook guards with one nil test.
	check *check.Checker

	// xfree is the free list of recycled translation transactions.
	xfree *xact
}

// maxCycles bounds a run as a safety net against model bugs.
const maxCycles = engine.Cycle(2_000_000_000)

// New builds a system from the configuration.
func New(cfg Config) (*System, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg: cfg,
		eng: engine.New(),
		geo: noc.GridFor(cfg.Cores),
		rng: engine.NewRand(cfg.Seed),
	}
	s.initMetrics()

	sizing := tlb.DefaultL1Sizing().Scale(cfg.L1Scale)

	llc := cache.New(cache.LLCConfig()) // one physical LLC shared chip-wide
	for i := 0; i < cfg.Cores; i++ {
		hier := cache.WalkerHierarchyWithLLC(llc)
		s.cores = append(s.cores, &core{
			id:     i,
			node:   noc.NodeID(i),
			l1:     tlb.NewL1Group(sizing),
			walker: ptw.New(cfg.PTW, hier),
			hier:   hier,
		})
	}

	l2 := func(name string, entries int, hash bool) *tlb.TLB {
		return tlb.New(tlb.Config{
			Name:      name,
			Entries:   entries,
			Ways:      l2Ways,
			Sizes:     []vm.PageSize{vm.Page4K, vm.Page2M},
			IndexHash: hash,
		})
	}
	perCore := cfg.Org.l2EntriesPerCore()
	s.l2Lat = sram.AccessCycles(perCore)
	s.l2Busy = 1 // pipelined: one lookup starts per cycle
	if cfg.Org.monolithic() {
		total := perCore * cfg.Cores
		mono := l2("monolithic", total, false)
		// Banking multiplies ports but the monolithic structure is still
		// one physical array: its lookup latency is the full-capacity
		// latency (Fig. 4's 16-cycle SRAM for the 32x structure), or the
		// forced total access latency of MonolithicFixed.
		s.l2Lat = sram.AccessCycles(total)
		if cfg.Org == MonolithicFixed {
			s.l2Lat = cfg.FixedAccessLatency
		}
		s.l2Busy = bankServiceCycles
		// The paper's best banking: 4 banks below 64 cores, 8 from 64 up.
		banks := 4
		if cfg.Cores >= 64 {
			banks = 8
		}
		// The monolithic structure sits at one end of the chip: banks
		// spread along the bottom row (Section II-C2). GridFor pads
		// non-rectangular core counts, so a bottom-row tile may hold no
		// core; clamp each bank to the last real tile — under the
		// remote-walk policy the bank's node indexes s.cores directly,
		// and an unclamped padded node is out of range.
		for b := 0; b < banks; b++ {
			col := (2*b + 1) * s.geo.Cols / (2 * banks)
			nd := s.geo.Node(s.geo.Rows-1, col)
			if int(nd) >= cfg.Cores {
				nd = noc.NodeID(cfg.Cores - 1)
			}
			s.ports = append(s.ports, l2port{tlb: mono, node: nd})
		}
	} else {
		// One array per tile: the core's private L2 TLB, or its slice of
		// the shared TLB, whose set index must hash (tlb.Config.IndexHash).
		for _, c := range s.cores {
			s.ports = append(s.ports, l2port{tlb: l2(fmt.Sprintf("l2-%d", c.id), perCore, cfg.Org.IsShared()), node: c.node})
		}
	}
	for i := range s.ports {
		s.ports[i].idx = i
		if i == 0 || s.ports[i].tlb != s.ports[i-1].tlb {
			s.arrays = append(s.arrays, s.ports[i].tlb)
		}
	}
	s.sliceOut = make([]int, cfg.Cores)
	if cfg.Org == Nocstar || cfg.Org == NocstarIdeal {
		s.fabric = noc.NewNocstar(s.eng, noc.NocstarConfig{
			Geometry: s.geo,
			HPCmax:   cfg.HPCmax,
			Ideal:    cfg.Org == NocstarIdeal,
		})
		s.fabric.AttachMetrics(s.reg)
	}

	// Applications, address spaces, threads.
	nextCore := 0
	for ai := range cfg.Apps {
		acfg := cfg.Apps[ai]
		a := &app{
			cfg: acfg,
			idx: ai,
			as:  vm.NewAddressSpace(vm.ContextID(ai + 1)),
		}
		a.regions = acfg.Spec.Regions(acfg.Threads)
		for _, r := range a.regions {
			limit := uint64(0)
			if cfg.THP {
				// Align the THP boundary to whole 2 MB extents so no
				// region mixes superpage and base-page backing within
				// one page-table subtree.
				limit = uint64(float64(r.Span)*acfg.Spec.SuperpageFrac) / 512 * 512
			}
			a.superLimit = append(a.superLimit, limit)
		}
		s.apps = append(s.apps, a)

		for t := 0; t < acfg.Threads; t++ {
			c := s.cores[nextCore%cfg.Cores]
			nextCore++
			refs := uint64(float64(cfg.InstrPerThread) * acfg.Spec.MemRefPerInstr)
			if refs == 0 {
				refs = 1
			}
			var stream workload.Stream
			if acfg.Streams != nil {
				stream = acfg.Streams[t]
			} else {
				stream = workload.NewGenerator(acfg.Spec, acfg.Threads, t, s.rng.Split())
			}
			th := &thread{
				app:          a,
				core:         c,
				gen:          stream,
				refsTotal:    refs,
				refsLeft:     refs,
				cyclesPerRef: acfg.Spec.BaseCPI / acfg.Spec.MemRefPerInstr,
				buf:          make([]vm.VirtAddr, threadBatchSize),
			}
			s.threads = append(s.threads, th)
		}
	}
	s.threadsLive = len(s.threads)

	// Bind the optional invariant checker to this run's engine, port
	// arrays, and fabric (internal/check; one Checker per run).
	if cfg.Check != nil {
		s.check = cfg.Check
		s.check.AttachEngine(s.eng)
		s.check.BindPorts(len(s.ports))
		if s.fabric != nil {
			s.check.AttachFabric(s.fabric)
		}
	}
	return s, nil
}

// Run executes the configured simulation to completion. It is
// RunContext with a background context: uncancellable, no deadline.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunTraced is Run with an event-order observer: observe is invoked for
// every engine event the run executes, in execution order, with the
// event's (cycle, seq). The stream is a fingerprint of the engine's total
// event order, which the golden-order regression tests pin across
// refactors of the scheduling machinery.
func RunTraced(cfg Config, observe func(cycle, seq uint64)) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	s.eng.SetObserver(func(when engine.Cycle, seq uint64) { observe(uint64(when), seq) })
	return s.run()
}

func (s *System) run() (Result, error) {
	return s.runCtx(context.Background())
}

// runCtx runs the configured workload plus any disturbances from a cold
// machine to completion.
func (s *System) runCtx(ctx context.Context) (Result, error) {
	for _, th := range s.threads {
		s.eng.ScheduleAct(0, s, opThreadLoop, th)
	}
	s.startDisturbances()
	if err := s.advanceCtx(ctx, maxCycles); err != nil {
		return Result{}, err
	}
	if s.threadsLive > 0 {
		return Result{}, fmt.Errorf("system: run exceeded %d cycles with %d threads live",
			maxCycles, s.threadsLive)
	}
	if s.check != nil {
		// Commit reconciliation: every thread must have consumed exactly
		// its configured workload length, and the memory-reference
		// counter must agree with the sum.
		var total uint64
		for _, th := range s.threads {
			s.check.Committed(th.core.id, th.refsTotal-th.refsLeft, th.refsTotal)
			total += th.refsTotal
		}
		if got := s.m.memRefs.Value(); got != total {
			s.check.Violatef("commit: %d memory references counted, workloads total %d", got, total)
		}
		if err := s.check.Err(); err != nil {
			return Result{}, err
		}
	}
	return s.collect(), nil
}

// maxRefsPerSlice bounds how many references one threadLoop invocation
// may retire without yielding to the engine. Between L1 misses the loop
// runs as plain Go code with the simulated clock frozen; a working set
// that fits entirely in the L1 TLBs would otherwise retire its whole
// instruction budget inside a single event — starving every other actor
// of the cycles those references logically span, and starving
// RunContext's stride-based cancellation poll, which only runs between
// engine events. Realistic configs miss every few dozen references and
// never reach the bound, so their event streams are unchanged.
const maxRefsPerSlice = 1 << 16

// threadLoop advances a thread through memory references until the next
// L1 TLB miss, then hands off to the L2 access path.
func (s *System) threadLoop(th *thread) {
	if th.finished {
		return
	}
	ctx := th.app.as.Ctx
	carry := th.carry
	budget := maxRefsPerSlice
	for th.refsLeft > 0 {
		if budget <= 0 {
			if whole := engine.Cycle(carry); whole > 0 {
				th.carry = carry - float64(whole)
				s.eng.ScheduleAct(whole, s, opThreadLoop, th)
				return
			}
			// Degenerate sub-cycle slice (cyclesPerRef pathologically
			// small): yielding at delay 0 would respin the same engine
			// cycle, so keep running instead.
			budget = maxRefsPerSlice
		}
		budget--
		carry += th.cyclesPerRef
		if th.bufPos == th.bufLen {
			n := len(th.buf)
			if th.refsLeft < uint64(n) {
				n = int(th.refsLeft)
			}
			th.gen.NextBatch(th.buf[:n])
			th.bufPos, th.bufLen = 0, n
		}
		va := th.buf[th.bufPos]
		th.bufPos++
		th.refsLeft--
		s.m.memRefs.Inc()
		if e, ok := th.core.l1.Lookup(ctx, va); ok {
			if s.check != nil {
				s.check.Served(th.app.as, va.VPN(e.Size), e.Size, e.PFN)
			}
			continue
		}
		s.m.l1Misses.Inc()
		whole := engine.Cycle(carry)
		th.carry = carry - float64(whole)
		x := s.getXact()
		x.th = th
		x.va = va
		s.eng.ScheduleAct(whole, s, opAccessL2, x)
		return
	}
	th.carry = carry
	s.finishThread(th, s.eng.Now()+engine.Cycle(carry))
}

// finishThread retires a thread and updates app accounting.
func (s *System) finishThread(th *thread, at engine.Cycle) {
	th.finished = true
	s.threadsLive--
	a := th.app
	a.instrDone += s.cfg.InstrPerThread
	if at > a.finish {
		a.finish = at
	}
}

// collect assembles the Result after the run drains.
func (s *System) collect() Result {
	r := Result{Org: s.cfg.Org}
	for _, a := range s.apps {
		ar := AppResult{
			Name:         a.cfg.Spec.Name,
			Instructions: a.instrDone,
			FinishCycle:  uint64(a.finish),
		}
		if a.finish > 0 {
			ar.IPC = float64(a.instrDone) / float64(a.finish)
		}
		r.Apps = append(r.Apps, ar)
		r.Instructions += a.instrDone
		if ar.FinishCycle > r.Cycles {
			r.Cycles = ar.FinishCycle
		}
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	r.MemRefs = s.m.memRefs.Value()
	r.L1Misses = s.m.l1Misses.Value()
	r.L2Accesses = s.m.l2Accesses.Value()
	r.L2Hits = s.m.l2Hits.Value()
	r.L2Misses = s.m.l2Misses.Value()
	r.Walks = s.m.walks.Value()
	r.LocalSlice = s.m.localSlice.Value()
	r.Prefetches = s.m.prefetches.Value()
	r.Shootdowns = s.m.shootdowns.Value()
	for _, th := range s.threads {
		r.StallCycles += th.stall
	}
	if s.m.hitLat.Count() > 0 {
		r.AvgL2AccessCycles = float64(s.m.hitLat.Sum()) / float64(s.m.hitLat.Count())
	}
	// The round-trip histogram only observes mesh/SMART traversals (the
	// NOCSTAR fabric accounts its own network time in Noc), so the
	// divisor is the remote-access counter, preserving the legacy
	// AvgNetCycles semantics exactly.
	if remote := s.m.remote.Value(); remote > 0 {
		r.AvgNetCycles = float64(s.m.netLat.Sum()) / float64(remote)
	}
	r.Conc = s.conc
	r.SliceConc = s.sliceConc
	if s.fabric != nil {
		r.Noc = s.fabric.Stats()
	}
	for _, c := range s.cores {
		w := c.walker.Stats()
		r.PTW.Walks += w.Walks
		r.PTW.TotalCycles += w.TotalCycles
		r.PTW.QueueCycles += w.QueueCycles
		r.PTW.PWCHits += w.PWCHits
		r.PTW.LeafFromLLCOrMem += w.LeafFromLLCOrMem
		for i := range w.MemRefsByLevel {
			r.PTW.MemRefsByLevel[i] += w.MemRefsByLevel[i]
		}
	}
	s.chargeEnergy(&r)
	r.Energy = s.meter
	s.collectLayerMetrics()
	r.Metrics = s.reg.Snapshot()
	return r
}

// chargeEnergy finalizes the run's energy meter.
func (s *System) chargeEnergy(r *Result) {
	s.meter.AddL1Lookups(r.MemRefs)
	s.meter.AddL2Lookups(r.L2Accesses, s.perPort(s.arrays[0].Config().Entries))
	s.meter.AddWalkRefs(r.PTW.MemRefsByLevel)
	totalEntries := s.cfg.Cores * (s.cfg.Org.l2EntriesPerCore() + 100) // + L1 arrays
	s.meter.AddStatic(r.Cycles, totalEntries)
}

// mapSize returns the page size the OS backs va with for this app.
// Without THP every superLimit is 0, so every page is a base page.
func (a *app) mapSize(va vm.VirtAddr) vm.PageSize {
	for i, reg := range a.regions {
		if va >= reg.Base && va < reg.End() {
			idx := uint64(va-reg.Base) / vm.Page4K.Bytes()
			if idx < a.superLimit[i] {
				return vm.Page2M
			}
			return vm.Page4K
		}
	}
	return vm.Page4K
}

// ensureMapped returns the translation of va, first demand-mapping it at
// the OS-chosen size (mapSize, consulted only on a miss), falling back
// to a base page if a superpage cannot be installed (a conflicting 4 KB
// mapping already exists in the extent). One page-table descent does
// all of it.
func (s *System) ensureMapped(a *app, va vm.VirtAddr) (vm.PhysAddr, vm.PageSize) {
	return a.as.Ensure(va, a.mapSize)
}

// mix is a 64-bit finalizer used for slice/bank selection so that
// 2 MB-granular regions spread evenly (Section III-A "simple indexing
// mechanism using bits from virtual address", hashed to avoid striding
// artifacts of the synthetic layouts).
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// sliceFor returns the slice that holds app a's translation of va: its
// hammered slice when a has one, else the home slice of va. Selection
// uses 2 MB-granular address bits so 4 KB and 2 MB translations of the
// same region share a home and the requester needs no size information.
// a may be nil (no app: the home slice).
func (s *System) sliceFor(a *app, va vm.VirtAddr) int {
	if a != nil && a.cfg.HammerSlice >= 0 {
		return a.cfg.HammerSlice % s.cfg.Cores
	}
	return s.homeSlice(va)
}

// homeSlice is sliceFor without per-app redirection: slices are
// interleaved across tiles by a hash of the 2 MB-granule address.
func (s *System) homeSlice(va vm.VirtAddr) int {
	return int(mix(uint64(va)>>21) % uint64(s.cfg.Cores))
}

// bankFor returns the monolithic bank of va.
func (s *System) bankFor(va vm.VirtAddr) int {
	return int(mix(uint64(va)>>21) % uint64(len(s.ports)))
}

// portFor returns the L2 port that serves va for th: th's private L2, or
// the shared port of th's app (sharedPort).
func (s *System) portFor(th *thread, va vm.VirtAddr) *l2port {
	if s.cfg.Org == Private {
		return &s.ports[th.core.id]
	}
	return s.sharedPort(th.app, va)
}

// sharedPort returns the port of a shared organization that holds app
// a's translation of va: the bank of va, or the slice sliceFor picks.
func (s *System) sharedPort(a *app, va vm.VirtAddr) *l2port {
	if s.cfg.Org.monolithic() {
		return &s.ports[s.bankFor(va)]
	}
	return &s.ports[s.sliceFor(a, va)]
}

// appOf returns the app running in context ctx, or nil for a context no
// app runs (the storm's).
func (s *System) appOf(ctx vm.ContextID) *app {
	if i := int(ctx) - 1; i >= 0 && i < len(s.apps) {
		return s.apps[i]
	}
	return nil
}

// perPort returns a per-array quantity (entries, sets) divided among the
// ports fronting the array: all of it for a private L2 or a slice, one
// bank's share of the monolithic array.
func (s *System) perPort(n int) int { return n * len(s.arrays) / len(s.ports) }
