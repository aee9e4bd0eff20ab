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
	"nocstar/internal/place"
	"nocstar/internal/ptw"
	"nocstar/internal/sram"
	"nocstar/internal/stats"
	"nocstar/internal/tlb"
	"nocstar/internal/vm"
	"nocstar/internal/workload"
)

// core is one tile: a core with its L1 TLBs, page-table walker, and cache
// hierarchy, co-located with a shared-TLB slice in distributed designs.
type core struct {
	id     int
	node   noc.NodeID
	l1     *tlb.L1Group
	walker *ptw.Walker
	hier   *cache.Hierarchy
	// privL2 is the per-core private L2 TLB (Private organization only).
	privL2       *tlb.TLB
	privPortFree engine.Cycle
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

	threadsLeft int
	instrDone   uint64
	finish      engine.Cycle
}

// thread is one (hyper)thread's execution state.
type thread struct {
	app  *app
	core *core
	gen  workload.Stream

	// Batched reference generation: when gen supports NextBatch, buf is
	// refilled a slice at a time and the hot loop consumes it by index
	// bump; bufPos..bufLen is the unconsumed window. batch is nil for
	// plain Streams (trace replayers, test stubs), which fall back to
	// per-reference Next.
	batch  workload.BatchStream
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
// Refills are clamped to refsLeft so the generator never draws past the
// configured workload length. boundaryReset drops the buffer, so without
// the clamp the warmup's unused tail would be lost and the measured
// window would start at addresses that depend on the batch size; with
// it, the generator's RNG position at the warmup/measure boundary is
// exactly what the scalar path would have left.
const threadBatchSize = 1024

// System is one configured machine mid-run.
type System struct {
	cfg  Config
	eng  *engine.Engine
	geo  noc.Geometry
	topo noc.Topology
	pl   *place.Table
	rng  *engine.Rand

	cores   []*core
	apps    []*app
	threads []*thread

	// Shared last-level TLB state.
	slices        []*tlb.TLB // distributed orgs: one per node
	slicePortFree []engine.Cycle
	mono          *tlb.TLB // monolithic orgs
	bankPortFree  []engine.Cycle
	bankNodes     []noc.NodeID
	sliceLat      int // SRAM cycles of a slice / private L2
	monoLat       int // SRAM cycles of a monolithic bank
	// sliceCharges and bankCharges accumulate one shootdown's port
	// charges per slice or bank; deliverInvalidations zeroes each entry
	// as it applies it.
	sliceCharges []int
	bankCharges  []int

	fabric *noc.Nocstar
	mesh   *noc.Mesh
	smart  *noc.SMART

	// Shootdown plumbing.
	leaderOf   []int // core -> leader core
	leaderFree []engine.Cycle

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

	// measureStart is the engine cycle at which the measurement phase
	// began: 0 in cold runs, the warmup-drain cycle in warmed runs. All
	// cycle-denominated Result fields are reported relative to it.
	measureStart engine.Cycle

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
	s.topo = noc.NewTopology(cfg.Topology, s.geo)
	s.pl = buildPlacement(cfg, s.topo)
	s.initMetrics()

	sizing := tlb.DefaultL1Sizing().Scale(cfg.L1Scale)
	s.sliceLat = sram.AccessCycles(cfg.L2EntriesPerCore)

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

	switch cfg.Org {
	case Private:
		for _, c := range s.cores {
			c.privL2 = tlb.New(tlb.Config{
				Name:    fmt.Sprintf("privL2-%d", c.id),
				Entries: cfg.L2EntriesPerCore,
				Ways:    8,
				Sizes:   []vm.PageSize{vm.Page4K, vm.Page2M},
			})
		}
	case MonolithicMesh, MonolithicSMART, MonolithicFixed:
		total := cfg.L2EntriesPerCore * cfg.Cores
		s.mono = tlb.New(tlb.Config{
			Name:       "monolithic",
			Entries:    total,
			Ways:       8,
			Sizes:      []vm.PageSize{vm.Page4K, vm.Page2M},
			MaxCtxWays: cfg.QoSMaxCtxWays,
		})
		// Banking multiplies ports but the monolithic structure is still
		// one physical array: its lookup latency is the full-capacity
		// latency (Fig. 4's 16-cycle SRAM for the 32x structure).
		s.monoLat = sram.AccessCycles(total)
		s.bankPortFree = make([]engine.Cycle, cfg.Banks)
		s.bankCharges = make([]int, cfg.Banks)
		// The monolithic structure sits at one end of the chip: banks
		// spread along the bottom row (Section II-C2). GridFor pads
		// non-rectangular core counts, so a bottom-row tile may hold no
		// core; clamp each bank to the last real tile — under the
		// remote-walk policy the bank's node indexes s.cores directly,
		// and an unclamped padded node is out of range.
		for b := 0; b < cfg.Banks; b++ {
			col := (2*b + 1) * s.geo.Cols / (2 * cfg.Banks)
			nd := s.geo.Node(s.geo.Rows-1, col)
			if int(nd) >= cfg.Cores {
				nd = noc.NodeID(cfg.Cores - 1)
			}
			s.bankNodes = append(s.bankNodes, nd)
		}
		mc := noc.DefaultMeshConfig(s.geo)
		mc.Topology = s.topo
		s.mesh = noc.NewMesh(mc)
		s.smart = noc.NewSMART(noc.DefaultSMARTConfig(s.geo))
	case DistributedMesh, Nocstar, NocstarIdeal, IdealShared:
		for i := 0; i < cfg.Cores; i++ {
			s.slices = append(s.slices, tlb.New(tlb.Config{
				Name:       fmt.Sprintf("slice-%d", i),
				Entries:    cfg.L2EntriesPerCore,
				Ways:       8,
				Sizes:      []vm.PageSize{vm.Page4K, vm.Page2M},
				IndexHash:  true,
				MaxCtxWays: cfg.QoSMaxCtxWays,
			}))
		}
		s.slicePortFree = make([]engine.Cycle, cfg.Cores)
		s.sliceCharges = make([]int, cfg.Cores)
		s.sliceOut = make([]int, cfg.Cores)
		mc := noc.DefaultMeshConfig(s.geo)
		mc.Topology = s.topo
		s.mesh = noc.NewMesh(mc)
		if cfg.Org == Nocstar || cfg.Org == NocstarIdeal {
			s.fabric = noc.NewNocstar(s.eng, noc.NocstarConfig{
				Geometry: s.geo,
				HPCmax:   cfg.HPCmax,
				Ideal:    cfg.Org == NocstarIdeal,
			})
		}
	default:
		return nil, fmt.Errorf("system: unknown organization %v", cfg.Org)
	}
	if s.fabric != nil {
		s.fabric.AttachMetrics(s.reg)
	}

	// Shootdown invalidation leaders (Section III-G): core i reports to
	// leader (i / groupSize) * groupSize.
	s.leaderOf = make([]int, cfg.Cores)
	s.leaderFree = make([]engine.Cycle, cfg.Cores)
	group := cfg.Cores
	if cfg.InvLeaders > 0 && cfg.InvLeaders < cfg.Cores {
		group = (cfg.Cores + cfg.InvLeaders - 1) / cfg.InvLeaders
	} else if cfg.InvLeaders == 0 {
		group = 1 // every core is its own leader (direct sends)
	}
	for i := range s.leaderOf {
		s.leaderOf[i] = (i / group) * group
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
		a.threadsLeft = acfg.Threads
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
			}
			if bs, ok := stream.(workload.BatchStream); ok {
				th.batch = bs
				th.buf = make([]vm.VirtAddr, threadBatchSize)
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
		s.check.BindPorts(len(s.slicePortFree), len(s.bankPortFree), cfg.Cores)
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

func (s *System) runCtx(ctx context.Context) (Result, error) {
	if s.cfg.WarmupInstr > 0 {
		if err := s.warmup(ctx); err != nil {
			return Result{}, err
		}
	}
	return s.measured(ctx)
}

// warmup executes Config.WarmupInstr instructions per thread through the
// normal execution path — filling TLBs, page tables, PTE caches, and NoC
// reservation state — then resets every statistic at the boundary so the
// measurement phase reports only its own events. Disturbances
// (shootdowns, storms) do not run during warmup; they belong to the
// measured phase. The generators stop exactly at the warmup's last
// reference (see threadBatchSize), so the measured window continues each
// thread's address stream where the warmup left it.
func (s *System) warmup(ctx context.Context) error {
	for _, th := range s.threads {
		refs := uint64(float64(s.cfg.WarmupInstr) * th.app.cfg.Spec.MemRefPerInstr)
		if refs == 0 {
			refs = 1
		}
		th.refsTotal = refs
		th.refsLeft = refs
		s.eng.ScheduleAct(0, s, opThreadLoop, th)
	}
	if err := s.advanceCtx(ctx, maxCycles); err != nil {
		return err
	}
	if s.threadsLive > 0 {
		return fmt.Errorf("system: warmup exceeded %d cycles with %d threads live",
			maxCycles, s.threadsLive)
	}
	s.boundaryReset()
	return nil
}

// boundaryReset zeroes every statistic and rearms the threads with their
// measured workload length, leaving all warm microarchitectural state
// (TLB contents, page tables, caches, link reservations, RNG positions)
// intact. The engine clock keeps running monotonically across the
// boundary; measureStart records where measurement began.
func (s *System) boundaryReset() {
	s.eng.ResetProcessed()
	s.reg.Reset()
	s.conc = stats.ConcurrencyHist{}
	s.sliceConc = stats.ConcurrencyHist{}
	s.meter = energy.Meter{}
	for _, c := range s.cores {
		c.l1.ResetStats()
		c.walker.ResetStats()
		c.hier.ResetStats()
		if c.privL2 != nil {
			c.privL2.ResetStats()
		}
	}
	for _, sl := range s.slices {
		sl.ResetStats()
	}
	if s.mono != nil {
		s.mono.ResetStats()
	}
	if s.fabric != nil {
		s.fabric.ResetStats()
	}
	if s.mesh != nil {
		s.mesh.ResetStats()
	}
	for _, a := range s.apps {
		a.threadsLeft = a.cfg.Threads
		a.instrDone = 0
		a.finish = 0
	}
	for _, th := range s.threads {
		refs := uint64(float64(s.cfg.InstrPerThread) * th.app.cfg.Spec.MemRefPerInstr)
		if refs == 0 {
			refs = 1
		}
		th.refsTotal = refs
		th.refsLeft = refs
		th.carry = 0
		th.stall = 0
		th.finished = false
		th.bufPos, th.bufLen = 0, 0
	}
	s.threadsLive = len(s.threads)
	s.measureStart = s.eng.Now()
}

// measured runs the measurement phase: the full configured workload plus
// any disturbances, from the current (cold or warmed) state.
func (s *System) measured(ctx context.Context) (Result, error) {
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
		var va vm.VirtAddr
		if th.batch != nil {
			if th.bufPos == th.bufLen {
				n := len(th.buf)
				if th.refsLeft < uint64(n) {
					n = int(th.refsLeft)
				}
				th.batch.NextBatch(th.buf[:n])
				th.bufPos, th.bufLen = 0, n
			}
			va = th.buf[th.bufPos]
			th.bufPos++
		} else {
			va = th.gen.Next()
		}
		th.refsLeft--
		s.m.memRefs.Inc()
		if e, ok := th.core.l1.Lookup(ctx, va); ok {
			if s.check != nil {
				s.check.Served(th.app.as, e.VPN, e.Size, e.PFN)
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
	a.threadsLeft--
	a.instrDone += s.cfg.InstrPerThread
	if at > a.finish {
		a.finish = at
	}
}

// collect assembles the Result after the run drains.
func (s *System) collect() Result {
	r := Result{Org: s.cfg.Org}
	for _, a := range s.apps {
		finish := engine.Cycle(0)
		if a.finish > s.measureStart {
			finish = a.finish - s.measureStart
		}
		ar := AppResult{
			Name:         a.cfg.Spec.Name,
			Instructions: a.instrDone,
			FinishCycle:  uint64(finish),
		}
		if finish > 0 {
			ar.IPC = float64(a.instrDone) / float64(finish)
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
	entries := s.cfg.L2EntriesPerCore
	if s.mono != nil {
		entries = s.mono.Config().Entries / s.cfg.Banks
	}
	s.meter.AddL2Lookups(r.L2Accesses, entries)
	s.meter.AddWalkRefs(r.PTW.MemRefsByLevel)
	totalEntries := s.cfg.Cores * (s.cfg.L2EntriesPerCore + 100) // + L1 arrays
	s.meter.AddStatic(r.Cycles, totalEntries)
}

// mapSize returns the page size the OS backs va with for this app.
func (a *app) mapSize(va vm.VirtAddr, thp bool) vm.PageSize {
	if !thp {
		return vm.Page4K
	}
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

// ensureMapped demand-maps va at the OS-chosen size, falling back to a
// base page if a superpage cannot be installed (a conflicting 4 KB
// mapping already exists in the extent).
func (s *System) ensureMapped(a *app, va vm.VirtAddr) {
	a.as.EnsureMapped(va, a.mapSize(va, s.cfg.THP))
	if _, _, ok := a.as.Translate(va); !ok {
		a.as.EnsureMapped(va, vm.Page4K)
	}
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

// sliceFor returns the home slice of va. Selection uses 2 MB-granular
// address bits so 4 KB and 2 MB translations of the same region share a
// home and the requester needs no size information.
func (s *System) sliceFor(th *thread, va vm.VirtAddr) int {
	if th != nil && th.app.cfg.HammerSlice >= 0 {
		return th.app.cfg.HammerSlice % s.cfg.Cores
	}
	return s.homeSlice(va)
}

// homeSlice is sliceFor without per-app redirection: the address hash
// picks a logical slice and the placement table maps it onto a physical
// tile (the identity under the default row-major placement).
func (s *System) homeSlice(va vm.VirtAddr) int {
	return s.pl.Slice(int(mix(uint64(va)>>21) % uint64(s.cfg.Cores)))
}

// bankFor returns the monolithic bank of va.
func (s *System) bankFor(va vm.VirtAddr) int {
	return int(mix(uint64(va)>>21) % uint64(s.cfg.Banks))
}
