package system

import (
	"context"
	"testing"
	"time"

	"nocstar/internal/engine"
	"nocstar/internal/metrics"
	"nocstar/internal/vm"
	"nocstar/internal/workload"
)

// ringStream cycles a thread over a fixed ring of 4 KB pages. A working
// set larger than the L1 TLBs (and, across threads, than the shared L2)
// keeps the full critical path busy: L1 misses, remote NOCSTAR slice
// accesses, L2 misses, and page walks.
type ringStream struct {
	base  vm.VirtAddr
	pages uint64
	next  uint64
}

func (r *ringStream) Next() vm.VirtAddr {
	va := r.base + vm.VirtAddr((r.next%r.pages)*4096)
	r.next++
	return va
}

// allocTestSystem builds a running NOCSTAR system in steady state: thread
// loops started (as run() does) and warmed far enough that every page of
// every ring is mapped (including prefetch neighbours), all free lists
// are populated, and the engine's timing wheel has completed a full lap.
func allocTestSystem(t testing.TB) (*System, *engine.Cycle) {
	t.Helper()
	const threads = 8
	spec := workload.Spec{
		Name:           "alloc-ring",
		FootprintPages: 1, // unused: streams are injected
		MemRefPerInstr: 1.0,
		BaseCPI:        1.0,
	}
	app := App{Spec: spec, Threads: threads, HammerSlice: HammerNone}
	for i := 0; i < threads; i++ {
		app.Streams = append(app.Streams, &ringStream{
			base:  vm.VirtAddr(0x1000_0000_0000 + uint64(i)*0x4000_0000),
			pages: 4096,
		})
	}
	cfg := Config{
		Org:            Nocstar,
		Cores:          threads,
		Apps:           []App{app},
		InstrPerThread: 1 << 40, // never finishes during the test
		Seed:           5,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range s.threads {
		s.eng.ScheduleAct(0, s, opThreadLoop, th)
	}
	s.startDisturbances()
	// The long warmup matters: beyond mapping every page and filling the
	// free lists, each of the engine's 8192 wheel buckets must see its
	// steady-state maximum event count so bucket capacities stop growing.
	// Empirically the last append-growth happens before cycle 8M with this
	// workload; 10M leaves margin.
	limit := engine.Cycle(10_000_000)
	s.eng.RunUntil(limit)
	if s.m.walks.Value() == 0 || s.m.l2Misses.Value() == 0 || s.m.remote.Value() == 0 {
		t.Fatalf("warmup did not exercise the full path: walks=%d l2Misses=%d remote=%d",
			s.m.walks.Value(), s.m.l2Misses.Value(), s.m.remote.Value())
	}
	return s, &limit
}

// TestAccessL2AllocFree pins the tentpole property end to end: a warm
// system advances — thread issue, L1 miss, NOCSTAR path setup, slice
// lookup, page walk, resume — without a single heap allocation.
func TestAccessL2AllocFree(t *testing.T) {
	s, limit := allocTestSystem(t)
	avg := testing.AllocsPerRun(10, func() {
		*limit += 20_000
		s.eng.RunUntil(*limit)
	})
	if avg != 0 {
		t.Fatalf("steady-state translation path allocates: %.1f allocs per 20k cycles, want 0", avg)
	}
}

// TestAccessL2AllocFreeWithTracer repeats the allocation pin with an
// event tracer attached: a full recording window keeps dropping events,
// and an open window appends into preallocated storage — neither may
// allocate. (The metrics registry is always attached: New registers it.)
func TestAccessL2AllocFreeWithTracer(t *testing.T) {
	s, limit := allocTestSystem(t)
	s.SetTracer(metrics.NewTracer(1 << 16))
	avg := testing.AllocsPerRun(10, func() {
		*limit += 20_000
		s.eng.RunUntil(*limit)
	})
	if avg != 0 {
		t.Fatalf("traced translation path allocates: %.1f allocs per 20k cycles, want 0", avg)
	}
}

// TestAccessL2AllocFreeWithContext repeats the allocation pin while the
// engine is driven through the context-polling path (advanceCtx with a
// live cancellable context, as RunContext uses): the strided polling
// sits outside the event loop and must not put the critical path back
// on the heap.
func TestAccessL2AllocFreeWithContext(t *testing.T) {
	s, limit := allocTestSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	var ctxErr error
	avg := testing.AllocsPerRun(10, func() {
		*limit += 20_000
		if err := s.advanceCtx(ctx, *limit); err != nil {
			ctxErr = err
		}
	})
	if ctxErr != nil {
		t.Fatal(ctxErr)
	}
	if avg != 0 {
		t.Fatalf("context-polled translation path allocates: %.1f allocs per 20k cycles, want 0", avg)
	}
}

// BenchmarkAccessL2 measures steady-state simulation throughput of the
// full translation critical path, in wall time per simulated cycle.
func BenchmarkAccessL2(b *testing.B) {
	s, limit := allocTestSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	*limit += engine.Cycle(b.N)
	s.eng.RunUntil(*limit)
}

// deliverTestSystem builds a system of org whose cores' L1 TLBs (and
// private L2 TLBs) are full of an application's translations, with a
// 512-page promotion burst of the storm's context and a single-page
// shootdown of the application's ready to deliver.
func deliverTestSystem(t testing.TB, org Org, cores int) (s *System, burst, single []vm.Invalidation) {
	t.Helper()
	cfg := smallConfig(org)
	cfg.Cores = cores
	cfg.Apps[0].Threads = cores
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const app = vm.ContextID(1)
	for _, c := range s.cores {
		for vpn := uint64(0); vpn < 4096; vpn++ {
			c.l1.Insert(app, vpn, vm.Page4K, vpn)
			if c.privL2 != nil {
				c.privL2.Insert(app, vpn, vm.Page4K, vpn)
			}
		}
	}
	burst = promoteBurst(t, vm.ContextID(len(s.apps)+1), 0x7000_0000_0000)
	single = []vm.Invalidation{{Ctx: app, VPN: 7, Size: vm.Page4K}}
	return s, burst, single
}

// TestDeliverInvalidationsAllocFree pins shootdown delivery to the heap
// it needs: after a warm-up call, a 512-page promotion burst and a
// single-page shootdown each allocate nothing, in the private,
// monolithic and sliced organizations.
func TestDeliverInvalidationsAllocFree(t *testing.T) {
	for _, org := range []Org{Private, MonolithicMesh, DistributedMesh} {
		s, burst, single := deliverTestSystem(t, org, 8)
		for name, invs := range map[string][]vm.Invalidation{"burst": burst, "single page": single} {
			s.deliverInvalidations(invs)
			if avg := testing.AllocsPerRun(20, func() { s.deliverInvalidations(invs) }); avg != 0 {
				t.Errorf("%v: %s shootdown allocates %.1f times per delivery, want 0", org, name, avg)
			}
		}
	}
}

// BenchmarkDeliverBurst measures one 512-page promotion burst delivered
// to a 32-core system, in wall time per burst: every core's L1 TLBs,
// page-walk cache and (private organization) L2 TLB, plus the shared
// structure's per-page invalidations and the coalesced port charges.
func BenchmarkDeliverBurst(b *testing.B) {
	for _, org := range []Org{Private, MonolithicMesh, Nocstar} {
		b.Run(org.String(), func(b *testing.B) {
			s, burst, _ := deliverTestSystem(b, org, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.deliverInvalidations(burst)
			}
		})
	}
}
