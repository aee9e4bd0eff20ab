package cache

import (
	"runtime"
	"testing"
	"testing/quick"

	"nocstar/internal/vm"
)

func small() *Cache {
	return New(Config{Name: "t", Sets: 4, Ways: 2, HitLatency: 3})
}

func TestLookupMissThenHit(t *testing.T) {
	c := small()
	if c.Lookup(0x1000) {
		t.Fatal("empty cache hit")
	}
	c.Insert(0x1000)
	if !c.Lookup(0x1000) {
		t.Fatal("inserted line missed")
	}
	// Same line, different byte.
	if !c.Lookup(0x1004) {
		t.Fatal("same-line byte missed")
	}
	// Different line.
	if c.Lookup(0x2000) {
		t.Fatal("different line hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 4 sets x 2 ways, 64B lines: set = (pa/64)%4
	// Three lines in set 0: pa = 0, 256, 512 (line addrs 0, 4, 8).
	c.Insert(0)
	c.Insert(256)
	c.Lookup(0) // make line 0 MRU
	c.Insert(512)
	if !c.Lookup(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Lookup(256) {
		t.Fatal("LRU line survived")
	}
	if !c.Lookup(512) {
		t.Fatal("new line missing")
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := small()
	c.Insert(0)
	c.Insert(256)
	c.Insert(0) // refresh, not duplicate
	c.Insert(512)
	if !c.Lookup(0) {
		t.Fatal("refreshed line evicted")
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, cfg := range []Config{
		{Sets: 3, Ways: 2},
		{Sets: 0, Ways: 2},
		{Sets: 4, Ways: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(100,
		Config{Name: "L1", Sets: 2, Ways: 1, HitLatency: 4},
		Config{Name: "L2", Sets: 8, Ways: 2, HitLatency: 12},
	)
	lat, lvl := h.Access(0x4000)
	if lat != 100 || lvl != 2 {
		t.Fatalf("cold access = %d cycles level %d", lat, lvl)
	}
	lat, lvl = h.Access(0x4000)
	if lat != 4 || lvl != 0 {
		t.Fatalf("warm access = %d cycles level %d", lat, lvl)
	}
}

func TestHierarchyInclusiveFill(t *testing.T) {
	h := NewHierarchy(100,
		Config{Name: "L1", Sets: 2, Ways: 1, HitLatency: 4},
		Config{Name: "L2", Sets: 8, Ways: 4, HitLatency: 12},
	)
	h.Access(0x0000) // set 0 of L1
	h.Access(0x0080) // also L1 set 0 (line 2 % 2 = 0): evicts 0x0000 from L1
	lat, lvl := h.Access(0x0000)
	if lvl != 1 || lat != 12 {
		t.Fatalf("expected L2 hit after L1 eviction, got level %d lat %d", lvl, lat)
	}
	// And the L2 hit refills L1.
	lat, lvl = h.Access(0x0000)
	if lvl != 0 || lat != 4 {
		t.Fatalf("expected L1 hit after refill, got level %d lat %d", lvl, lat)
	}
}

func TestHierarchyStats(t *testing.T) {
	h := DefaultHierarchy()
	h.Access(0x1234)
	h.Access(0x1234)
	acc, fills := h.Stats()
	if acc != 2 || fills != 1 {
		t.Fatalf("acc=%d fills=%d", acc, fills)
	}
	if h.Levels() != 3 {
		t.Fatalf("default hierarchy has %d levels", h.Levels())
	}
}

// TestDefaultHierarchyPaperLatencies serves one line from each level
// and from memory. Lines 4 KB apart share the line's L1 set and spread
// over the L2; lines 32 KB apart share its L1 and L2 sets. Eight such
// lines push it out of the 8-way levels it shares with them.
func TestDefaultHierarchyPaperLatencies(t *testing.T) {
	for _, tc := range []struct {
		level  int
		stride vm.PhysAddr
		want   int
	}{{0, 0, 4}, {1, 4096, 12}, {2, 32768, 50}} {
		h := DefaultHierarchy()
		if lat, lvl := h.Access(0); lat != 200 || lvl != 3 {
			t.Fatalf("cold access = %d cycles from level %d, want 200 from memory", lat, lvl)
		}
		for k := vm.PhysAddr(1); tc.stride != 0 && k <= 8; k++ {
			h.Access(k * tc.stride)
		}
		if lat, lvl := h.Access(0); lat != tc.want || lvl != tc.level {
			t.Fatalf("access = %d cycles from level %d, want %d from level %d (paper Haswell)",
				lat, lvl, tc.want, tc.level)
		}
	}
}

func TestPolluteEvicts(t *testing.T) {
	h := NewHierarchy(100,
		Config{Name: "L1", Sets: 2, Ways: 1, HitLatency: 4},
		Config{Name: "L2", Sets: 2, Ways: 1, HitLatency: 12},
	)
	h.Access(0x0000)
	h.Access(0x0040)
	h.Pollute(16) // larger than both caches: everything gone
	if lat, _ := h.Access(0x0000); lat != 100 {
		t.Fatalf("line survived saturating pollution (lat %d)", lat)
	}
}

// Property: a just-inserted line always hits, whatever else is resident.
func TestInsertThenLookupProperty(t *testing.T) {
	c := New(Config{Name: "p", Sets: 16, Ways: 4, HitLatency: 1})
	f := func(addrs []uint32, probe uint32) bool {
		for _, a := range addrs {
			c.Insert(vm.PhysAddr(a))
		}
		c.Insert(vm.PhysAddr(probe))
		return c.Lookup(vm.PhysAddr(probe))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: hierarchy access latency is always one of the configured
// level latencies or the memory latency.
func TestHierarchyLatencyDomainProperty(t *testing.T) {
	h := DefaultHierarchy()
	valid := map[int]bool{4: true, 12: true, 50: true, 200: true}
	f := func(addr uint32) bool {
		lat, _ := h.Access(vm.PhysAddr(addr))
		return valid[lat]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

var (
	cacheSink *Cache
	hierSink  *Hierarchy
)

// TestNewAllocs pins the set-major layout: a cache is its header and one
// slice of lines whatever its geometry, so the chip's 8192-set LLC makes
// as many allocations as a one-line cache, and one core's walker view
// over the shared LLC allocates only its own L2 (header and lines) and
// the hierarchy (struct and level slice).
func TestNewAllocs(t *testing.T) {
	runtime.GC() // a collection starting mid-count can add the runtime's own allocations
	tiny := testing.AllocsPerRun(20, func() { cacheSink = New(Config{Name: "t", Sets: 1, Ways: 1}) })
	llc := testing.AllocsPerRun(20, func() { cacheSink = New(LLCConfig()) })
	if llc != 2 || tiny != 2 {
		t.Fatalf("New allocates %.0f times for the LLC and %.0f for one line, want 2 (the Cache and its lines)", llc, tiny)
	}
	shared := New(LLCConfig())
	if got := testing.AllocsPerRun(5, func() { hierSink = WalkerHierarchyWithLLC(shared) }); got != 4 {
		t.Fatalf("WalkerHierarchyWithLLC allocates %.0f times, want 4 (its L2 and the hierarchy)", got)
	}
}
