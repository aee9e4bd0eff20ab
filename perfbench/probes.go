package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"nocstar/internal/cache"
	"nocstar/internal/engine"
	"nocstar/internal/noc"
	"nocstar/internal/ptw"
	"nocstar/internal/store"
	"nocstar/internal/tlb"
	"nocstar/internal/trace"
	"nocstar/internal/vm"
	"nocstar/internal/workload"
)

// The probes time public entry points of single layers, on inputs derived
// from the workload itself: its reference streams, its L1-miss stream,
// its fabric size and injection rate, and its own result blobs. Each
// reports a mean cost per call.

// probeInput is what the probes take from the workload's traced pass.
type probeInput struct {
	specs []workload.Spec
	seed  int64
	cores int     // fabric size for the NOCSTAR probe
	rate  float64 // NOCSTAR messages per node per cycle
	blobs [][]byte
	work  string // scratch directory for the directory-store probe
}

// runProbes runs every probe and returns its metrics.
func runProbes(in probeInput, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	timed := func(name string, fn func()) {
		_, end := tr.begin("probe."+name, 0, 0, 0)
		fn()
		end()
	}
	timed("workload", func() { m["workload.gen_ns_per_ref"] = probeGenerate(in.specs, in.seed) })
	timed("translation", func() { probeTranslation(in.specs, in.seed, m) })
	var err error
	timed("shootdown", func() { err = probeShootdown(m) })
	if err != nil {
		return nil, err
	}
	timed("engine", func() { m["engine.schedule_run_ns"] = probeEngine(in.seed) })
	timed("noc", func() { m["noc.nocstar_grant_ns"] = probeNocstar(in.cores, in.rate, in.seed) })
	timed("store", func() { err = probeStore(in.blobs, in.work, m) })
	return m, err
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// probeGenerate times Generator.NextBatch, the batched reference
// generation the simulator's thread loop consumes.
func probeGenerate(specs []workload.Spec, seed int64) float64 {
	const perSpec = 1 << 21
	buf := make([]vm.VirtAddr, 1024)
	var total time.Duration
	for i, s := range specs {
		g := workload.NewGenerator(s, 32, 0, engine.NewRand(seed+int64(i)))
		t0 := time.Now()
		for n := 0; n < perSpec; n += len(buf) {
			g.NextBatch(buf)
		}
		total += time.Since(t0)
	}
	return nsPer(total, perSpec*len(specs))
}

// probeTranslation replays the workload's captured reference streams
// through the translation path's layers in turn: each thread's L1 TLBs,
// a shared-slice-sized L2 TLB fed the L1-miss stream, the address space's
// demand mapping, and a page-table walker over the walker cache
// hierarchy.
func probeTranslation(specs []workload.Spec, seed int64, m map[string]float64) {
	const threads, refsPerThread = 4, 1 << 16
	var (
		refs, misses                        []vm.VirtAddr
		l1Time, l2Ins, l2Look, xlate, walks time.Duration
	)
	for i, s := range specs {
		t := trace.Capture(s, threads, refsPerThread, seed+int64(i))
		for _, th := range t.Threads {
			for _, vpn := range th {
				refs = append(refs, vm.VirtAddr(vpn<<12))
			}
		}
	}
	const ctx = vm.ContextID(1)
	for th := 0; th < threads*len(specs); th++ {
		g := tlb.NewL1Group(tlb.DefaultL1Sizing())
		stream := refs[th*refsPerThread : (th+1)*refsPerThread]
		t0 := time.Now()
		for _, va := range stream {
			if _, ok := g.Lookup(ctx, va); !ok {
				g.Insert(ctx, va.VPN(vm.Page4K), vm.Page4K, va.VPN(vm.Page4K))
				misses = append(misses, va)
			}
		}
		l1Time += time.Since(t0)
	}

	l2 := tlb.New(tlb.Config{Name: "probe", Entries: 1024, Ways: 8,
		Sizes: []vm.PageSize{vm.Page4K, vm.Page2M}, IndexHash: true})
	t0 := time.Now()
	for _, va := range misses {
		l2.Insert(ctx, va.VPN(vm.Page4K), vm.Page4K, va.VPN(vm.Page4K))
	}
	l2Ins = time.Since(t0)
	t0 = time.Now()
	for _, va := range misses {
		l2.Lookup(ctx, va)
	}
	l2Look = time.Since(t0)

	as := vm.NewAddressSpace(ctx)
	t0 = time.Now()
	for _, va := range refs {
		as.EnsureMapped(va, vm.Page4K)
		as.Translate(va)
	}
	xlate = time.Since(t0)

	w := ptw.New(ptw.DefaultConfig(), cache.WalkerHierarchy())
	now := engine.Cycle(0)
	t0 = time.Now()
	for _, va := range misses {
		lat, _, _ := w.Walk(now, as, va)
		now += engine.Cycle(lat)
	}
	walks = time.Since(t0)

	m["tlb.l1_lookup_ns"] = nsPer(l1Time, len(refs))
	m["tlb.l2_insert_ns"] = nsPer(l2Ins, len(misses))
	m["tlb.l2_lookup_ns"] = nsPer(l2Look, len(misses))
	m["vm.translate_ns"] = nsPer(xlate, len(refs))
	m["ptw.walk_ns"] = nsPer(walks, len(misses))
}

// probeShootdown times the TLB write side: superpage promotion and
// demotion in the address space, applying the invalidations they return
// to a shared-slice-sized L2 TLB and an L1 group, and full flushes.
func probeShootdown(m map[string]float64) error {
	const (
		ctx     = vm.ContextID(1)
		extents = 64
		rounds  = 8
		base    = vm.VirtAddr(0x100_0000_0000)
	)
	as := vm.NewAddressSpace(ctx)
	l2 := tlb.New(tlb.Config{Name: "probe", Entries: 1024, Ways: 8,
		Sizes: []vm.PageSize{vm.Page4K, vm.Page2M}, IndexHash: true})
	l1 := tlb.NewL1Group(tlb.DefaultL1Sizing())
	extent := func(e int) vm.VirtAddr { return base + vm.VirtAddr(uint64(e)*vm.Page2M.Bytes()) }
	fill := func(e int) {
		for p := uint64(0); p < 512; p++ {
			va := extent(e) + vm.VirtAddr(p*vm.Page4K.Bytes())
			as.EnsureMapped(va, vm.Page4K)
			l2.Insert(ctx, va.VPN(vm.Page4K), vm.Page4K, va.VPN(vm.Page4K))
			l1.Insert(ctx, va.VPN(vm.Page4K), vm.Page4K, va.VPN(vm.Page4K))
		}
	}
	apply := func(invs []vm.Invalidation) time.Duration {
		t0 := time.Now()
		for _, inv := range invs {
			l2.Apply(inv)
			l1.Apply(inv)
		}
		return time.Since(t0)
	}
	var promoteDemote, inv time.Duration
	var invCount, pairs int
	for r := 0; r < rounds; r++ {
		for e := 0; e < extents; e++ {
			fill(e)
			t0 := time.Now()
			invs, err := as.Promote2M(extent(e))
			promoteDemote += time.Since(t0)
			if err != nil {
				return fmt.Errorf("shootdown probe: %w", err)
			}
			inv += apply(invs)
			invCount += len(invs)
			va := extent(e)
			l2.Insert(ctx, va.VPN(vm.Page2M), vm.Page2M, va.VPN(vm.Page2M))
			l1.Insert(ctx, va.VPN(vm.Page2M), vm.Page2M, va.VPN(vm.Page2M))
			t0 = time.Now()
			invs, err = as.Demote2M(va)
			promoteDemote += time.Since(t0)
			if err != nil {
				return fmt.Errorf("shootdown probe: %w", err)
			}
			inv += apply(invs)
			invCount += len(invs)
			pairs++
		}
	}
	var flush time.Duration
	const flushes = 256
	for f := 0; f < flushes; f++ {
		fill(f % extents)
		t0 := time.Now()
		l2.Flush()
		l1.Flush()
		flush += time.Since(t0)
	}
	m["tlb.invalidate_ns"] = nsPer(inv, invCount)
	m["tlb.flush_ns"] = nsPer(flush, flushes)
	m["vm.promote_demote_us"] = nsPer(promoteDemote, pairs) / 1e3
	return nil
}

// holdActor keeps a fixed population of events churning through an
// engine: each event reschedules itself a random delay ahead until the
// budget runs out, the classic hold model of event-queue cost.
type holdActor struct {
	eng  *engine.Engine
	rng  *engine.Rand
	left int
}

func (h *holdActor) Act(uint8, any) {
	if h.left <= 0 {
		return
	}
	h.left--
	h.eng.ScheduleAct(engine.Cycle(1+h.rng.Intn(1000)), h, 0, nil)
}

// probeEngine times ScheduleAct plus Run per event.
func probeEngine(seed int64) float64 {
	const events, population = 1 << 21, 4096
	eng := engine.New()
	h := &holdActor{eng: eng, rng: engine.NewRand(seed), left: events - population}
	for i := 0; i < population; i++ {
		eng.ScheduleAct(engine.Cycle(1+h.rng.Intn(1000)), h, 0, nil)
	}
	t0 := time.Now()
	eng.Run()
	return nsPer(time.Since(t0), events)
}

// injector offers uniform-random NOCSTAR path requests at a fixed rate
// per node per cycle and counts grants.
type injector struct {
	eng    *engine.Engine
	fab    *noc.Nocstar
	rng    *engine.Rand
	nodes  int
	rate   float64 // requests per cycle across the fabric
	carry  float64
	cycles int
	grants int
}

func (in *injector) Act(uint8, any) {
	in.carry += in.rate
	for ; in.carry >= 1; in.carry-- {
		src := noc.NodeID(in.rng.Intn(in.nodes))
		dst := noc.NodeID(in.rng.Intn(in.nodes - 1))
		if dst >= src {
			dst++
		}
		in.fab.RequestPathTo(src, dst, in.fab.HoldCyclesOneWay(src, dst), in, 0, nil)
	}
	if in.cycles--; in.cycles > 0 {
		in.eng.ScheduleAct(1, in, 0, nil)
	}
}

func (in *injector) PathGranted(uint8, any, int) { in.grants++ }

// probeNocstar times RequestPathTo plus the engine run that arbitrates
// and grants it, at the fabric size and injection rate of the workload's
// NOCSTAR runs.
func probeNocstar(cores int, rate float64, seed int64) float64 {
	const grants = 1 << 18
	eng := engine.New()
	fab := noc.NewNocstar(eng, noc.NocstarConfig{Geometry: noc.GridFor(cores), HPCmax: 16})
	perCycle := rate * float64(cores)
	in := &injector{eng: eng, fab: fab, rng: engine.NewRand(seed), nodes: cores,
		rate: perCycle, cycles: int(grants/perCycle) + 1}
	eng.ScheduleAct(0, in, 0, nil)
	t0 := time.Now()
	eng.Run()
	return nsPer(time.Since(t0), in.grants)
}

// probeStore times the result stores' Get and Put on real result blobs:
// the in-memory LRU, the directory store, and reopening a populated
// directory.
func probeStore(blobs [][]byte, work string, m map[string]float64) error {
	const n = 256
	if len(blobs) == 0 {
		return fmt.Errorf("store probe: no result blobs")
	}
	keys := make([]string, n)
	var bytes int
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprint("probe", i)))
		keys[i] = hex.EncodeToString(sum[:])
		bytes += len(blobs[i%len(blobs)])
	}
	const memRounds = 64
	mem := store.NewMemory(n)
	t0 := time.Now()
	for r := 0; r < memRounds; r++ {
		for i, k := range keys {
			mem.Put(k, blobs[i%len(blobs)])
		}
	}
	m["store.mem_put_ns"] = nsPer(time.Since(t0), memRounds*n)
	t0 = time.Now()
	for r := 0; r < memRounds; r++ {
		for _, k := range keys {
			mem.Get(k)
		}
	}
	m["store.mem_get_ns"] = nsPer(time.Since(t0), memRounds*n)

	dir, err := os.MkdirTemp(work, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := store.OpenDir(dir, 0, 0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i, k := range keys {
		if err := d.Put(k, blobs[i%len(blobs)]); err != nil {
			return err
		}
	}
	m["store.dir_put_us"] = nsPer(time.Since(t0), n) / 1e3
	t0 = time.Now()
	for _, k := range keys {
		if _, ok := d.Get(k); !ok {
			return fmt.Errorf("store probe: blob %s missing", k)
		}
	}
	m["store.dir_get_us"] = nsPer(time.Since(t0), n) / 1e3
	t0 = time.Now()
	if _, err := store.OpenDir(dir, 0, 0); err != nil {
		return err
	}
	m["store.open_dir_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	m["store.blob_kb"] = float64(bytes) / n / 1024
	return nil
}
