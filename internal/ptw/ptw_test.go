package ptw

import (
	"testing"

	"nocstar/internal/cache"
	"nocstar/internal/engine"
	"nocstar/internal/vm"
)

func space(t *testing.T) *vm.AddressSpace {
	t.Helper()
	as := vm.NewAddressSpace(1)
	as.EnsureMapped(0x1000, vm.Page4K)
	return as
}

func TestFixedMode(t *testing.T) {
	as := space(t)
	w := New(Config{Mode: Fixed, FixedLatency: 40}, nil)
	lat, res, ok := w.Walk(0, as, 0x1000)
	if !ok || lat != 40 {
		t.Fatalf("fixed walk = %d ok=%v", lat, ok)
	}
	if res.Size != vm.Page4K {
		t.Fatalf("size = %v", res.Size)
	}
	if w.Stats().Walks != 1 || w.Stats().AvgCycles() != 40 {
		t.Fatalf("stats = %+v", w.Stats())
	}
}

func TestVariableModeRequiresHierarchy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Variable mode without hierarchy did not panic")
		}
	}()
	New(Config{Mode: Variable}, nil)
}

func TestVariableColdVsWarm(t *testing.T) {
	as := space(t)
	w := New(Config{Mode: Variable}, cache.DefaultHierarchy())
	cold, _, ok := w.Walk(0, as, 0x1000)
	if !ok {
		t.Fatal("walk failed")
	}
	// Cold 4-level walk: 4 memory fetches at 200 each, plus the overhead.
	if cold != 800+walkOverhead {
		t.Fatalf("cold walk = %d, want %d", cold, 800+walkOverhead)
	}
	warm, _, _ := w.Walk(engine.Cycle(cold), as, 0x1000)
	// The PWC holds the upper two levels; the PD and PT lines are in L1:
	// 2 x 4 cycles, plus the overhead.
	if warm != 8+walkOverhead {
		t.Fatalf("warm walk = %d, want %d", warm, 8+walkOverhead)
	}
	if w.Stats().PWCHits != 1 {
		t.Fatalf("PWC hits = %d, want 1", w.Stats().PWCHits)
	}
}

func TestPWCSkipsUpperLevels(t *testing.T) {
	as := space(t)
	w := New(DefaultConfig(), cache.DefaultHierarchy())
	first, _, _ := w.Walk(0, as, 0x1000) // PWC miss: 4 levels + overhead
	if first != 800+walkOverhead {
		t.Fatalf("first walk = %d, want %d", first, 800+walkOverhead)
	}
	// Map a second page in the same 1GB region; its upper levels are PWC
	// hits, so only PD + PT are fetched.
	as.EnsureMapped(0x200000, vm.Page4K)
	second, _, _ := w.Walk(1000, as, 0x200000)
	// PD line is warm (same PD as 0x1000? 0x200000 has a different PD
	// index but the same PD page -> same or adjacent line). Expect 2
	// fetches, each between L1 hit and memory.
	if second >= first {
		t.Fatalf("PWC did not reduce walk latency: %d vs %d", second, first)
	}
	if w.Stats().PWCHits != 1 {
		t.Fatalf("PWC hits = %d", w.Stats().PWCHits)
	}
}

func TestQueueingSerializesWalks(t *testing.T) {
	as := space(t)
	w := New(Config{Mode: Fixed, FixedLatency: 30}, nil)
	for range walkSlots {
		if lat, _, _ := w.Walk(100, as, 0x1000); lat != 30 {
			t.Fatalf("walk into a free slot = %d, want 30", lat)
		}
	}
	// Every slot is busy until 130: a walk arriving at 110 waits 20,
	// then takes 30 of service.
	if lat, _, _ := w.Walk(110, as, 0x1000); lat != 50 {
		t.Fatalf("queued walk = %d, want 50", lat)
	}
	if w.Stats().QueueCycles != 20 {
		t.Fatalf("queue cycles = %d", w.Stats().QueueCycles)
	}
}

func TestTwoWalkersOverlap(t *testing.T) {
	as := space(t)
	w := New(Config{Mode: Fixed, FixedLatency: 30}, nil)
	lat1, _, _ := w.Walk(100, as, 0x1000)
	lat2, _, _ := w.Walk(110, as, 0x1000) // second slot: no queueing
	lat3, _, _ := w.Walk(112, as, 0x1000) // both busy: queues behind slot 0
	if lat1 != 30 || lat2 != 30 {
		t.Fatalf("concurrent walks = %d, %d, want 30 each", lat1, lat2)
	}
	if lat3 != 18+30 {
		t.Fatalf("third walk = %d, want 48 (wait 18 + 30)", lat3)
	}
}

func TestWalkUnmapped(t *testing.T) {
	as := vm.NewAddressSpace(2)
	w := New(Config{Mode: Fixed, FixedLatency: 10}, nil)
	if _, _, ok := w.Walk(0, as, 0xdead000); ok {
		t.Fatal("walk of unmapped VA succeeded")
	}
	if w.Stats().Walks != 0 {
		t.Fatal("failed walk counted")
	}
}

func TestLeafLLCOrMemFraction(t *testing.T) {
	as := vm.NewAddressSpace(3)
	w := New(DefaultConfig(), cache.DefaultHierarchy())
	// Touch many distinct pages spread far apart: leaf PTEs are cold.
	for i := uint64(0); i < 200; i++ {
		va := vm.VirtAddr(i * 2 << 20) // one page per PT page
		as.EnsureMapped(va, vm.Page4K)
		w.Walk(engine.Cycle(i*1000), as, va)
	}
	frac := w.Stats().LeafLLCOrMemFraction()
	if frac < 0.5 {
		t.Fatalf("cold-leaf fraction = %v, expected mostly LLC/mem", frac)
	}
}

func TestInvalidatePWC(t *testing.T) {
	as := space(t)
	w := New(DefaultConfig(), cache.DefaultHierarchy())
	w.Walk(0, as, 0x1000)
	w.InvalidatePWC()
	as.EnsureMapped(0x3000, vm.Page4K)
	w.Walk(1000, as, 0x3000)
	if w.Stats().PWCHits != 0 {
		t.Fatalf("PWC hit after invalidation: %+v", w.Stats())
	}
}

func TestPWCFIFOEviction(t *testing.T) {
	as := vm.NewAddressSpace(4)
	w := New(Config{Mode: Variable}, cache.DefaultHierarchy())
	// One region more than the PWC holds, each 1 GB apart.
	for i := range pwcEntries + 1 {
		va := vm.VirtAddr(i) << 30
		as.EnsureMapped(va, vm.Page4K)
		w.Walk(0, as, va)
	}
	// Region 0 was evicted; walking it again is a PWC miss.
	before := w.Stats().PWCHits
	w.Walk(10000, as, 0)
	if w.Stats().PWCHits != before {
		t.Fatal("evicted PWC entry hit")
	}
	// The last region is still resident.
	w.Walk(20000, as, vm.VirtAddr(pwcEntries)<<30)
	if w.Stats().PWCHits != before+1 {
		t.Fatal("resident PWC entry missed")
	}
}

func TestStatsFractions(t *testing.T) {
	var s Stats
	if s.AvgCycles() != 0 || s.LeafLLCOrMemFraction() != 0 {
		t.Fatal("empty stats not zero")
	}
	s = Stats{Walks: 4, TotalCycles: 100, LeafFromLLCOrMem: 3}
	if s.AvgCycles() != 25 || s.LeafLLCOrMemFraction() != 0.75 {
		t.Fatalf("stats math wrong: %+v", s)
	}
}

func Test2MWalkShorter(t *testing.T) {
	as := vm.NewAddressSpace(5)
	as.EnsureMapped(0x40000000, vm.Page2M)
	as.EnsureMapped(0x80000000, vm.Page4K)
	// Separate walkers/hierarchies so the first walk cannot warm the
	// second's upper-level PTE lines.
	w2m := New(Config{Mode: Variable}, cache.DefaultHierarchy())
	w4k := New(Config{Mode: Variable}, cache.DefaultHierarchy())
	lat2m, res2m, _ := w2m.Walk(0, as, 0x40000000)
	lat4k, res4k, _ := w4k.Walk(0, as, 0x80000000)
	if res2m.Levels != 3 || res4k.Levels != 4 {
		t.Fatalf("levels = %d, %d", res2m.Levels, res4k.Levels)
	}
	if lat2m >= lat4k {
		t.Fatalf("2M walk (%d) not cheaper than 4K walk (%d)", lat2m, lat4k)
	}
}
