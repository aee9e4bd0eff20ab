package vm

import (
	"testing"
	"testing/quick"
)

func TestPageSizeGeometry(t *testing.T) {
	if Page4K.Bytes() != 4096 || Page2M.Bytes() != 2<<20 || Page1G.Bytes() != 1<<30 {
		t.Fatal("page sizes wrong")
	}
	va := VirtAddr(0x12345678)
	if va.VPN(Page4K) != 0x12345 {
		t.Fatalf("VPN = %#x", va.VPN(Page4K))
	}
	if va.PageBase(Page4K) != 0x12345000 {
		t.Fatalf("PageBase = %#x", va.PageBase(Page4K))
	}
	if va.Offset(Page4K) != 0x678 {
		t.Fatalf("Offset = %#x", va.Offset(Page4K))
	}
	if Page4K.String() != "4K" || Page2M.String() != "2M" || Page1G.String() != "1G" {
		t.Fatal("String() wrong")
	}
}

func TestMapWalkRoundTrip(t *testing.T) {
	pt := NewPageTable(nil)
	if err := pt.Map(0x7f0000400000, 0x10000000, Page4K); err != nil {
		t.Fatal(err)
	}
	pa, size, ok := pt.Translate(0x7f0000400abc)
	if !ok || size != Page4K || pa != 0x10000abc {
		t.Fatalf("translate = %#x %v %v", pa, size, ok)
	}
	if _, _, ok := pt.Translate(0x7f0000401000); ok {
		t.Fatal("adjacent page should be unmapped")
	}
}

func TestMapSuperpages(t *testing.T) {
	pt := NewPageTable(nil)
	if err := pt.Map(0x40000000, 0x80000000, Page2M); err != nil {
		t.Fatal(err)
	}
	pa, size, ok := pt.Translate(0x40000000 + 0x123456)
	if !ok || size != Page2M || pa != 0x80123456 {
		t.Fatalf("2M translate = %#x %v %v", pa, size, ok)
	}
	if err := pt.Map(0x80000000, 0x100000000, Page1G); err != nil {
		t.Fatal(err)
	}
	pa, size, ok = pt.Translate(0x80000000 + 0x3fffffff)
	if !ok || size != Page1G || pa != 0x100000000+0x3fffffff {
		t.Fatalf("1G translate = %#x %v %v", pa, size, ok)
	}
}

func TestMapAlignmentErrors(t *testing.T) {
	pt := NewPageTable(nil)
	if err := pt.Map(0x1001, 0x2000, Page4K); err == nil {
		t.Fatal("unaligned va accepted")
	}
	if err := pt.Map(0x1000, 0x2001, Page4K); err == nil {
		t.Fatal("unaligned pa accepted")
	}
	if err := pt.Map(0x200000, 0x1000, Page2M); err == nil {
		t.Fatal("unaligned 2M pa accepted")
	}
}

func TestMapConflicts(t *testing.T) {
	pt := NewPageTable(nil)
	if err := pt.Map(0x200000, 0x400000, Page2M); err != nil {
		t.Fatal(err)
	}
	// A 4K map under an existing 2M leaf must fail.
	if err := pt.Map(0x200000, 0x1000, Page4K); err == nil {
		t.Fatal("4K map under 2M leaf accepted")
	}
	// A 2M map over an existing 4K subtree must fail.
	if err := pt.Map(0x400000+4096, 0x1000, Page4K); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x400000, 0x800000, Page2M); err == nil {
		t.Fatal("2M leaf over 4K subtree accepted")
	}
}

func TestUnmap(t *testing.T) {
	pt := NewPageTable(nil)
	if err := pt.Map(0x5000, 0x9000, Page4K); err != nil {
		t.Fatal(err)
	}
	if pt.MappedCount(Page4K) != 1 {
		t.Fatalf("mapped count = %d", pt.MappedCount(Page4K))
	}
	if !pt.Unmap(0x5000, Page4K) {
		t.Fatal("unmap failed")
	}
	if pt.Unmap(0x5000, Page4K) {
		t.Fatal("double unmap succeeded")
	}
	if _, _, ok := pt.Translate(0x5000); ok {
		t.Fatal("still translates after unmap")
	}
	if pt.MappedCount(Page4K) != 0 {
		t.Fatalf("mapped count = %d after unmap", pt.MappedCount(Page4K))
	}
}

func TestWalkTrace(t *testing.T) {
	pt := NewPageTable(nil)
	if err := pt.Map(0x7000, 0x3000, Page4K); err != nil {
		t.Fatal(err)
	}
	res, ok := pt.Walk(0x7000)
	if !ok {
		t.Fatal("walk failed")
	}
	if res.Levels != 4 {
		t.Fatalf("4K walk levels = %d, want 4", res.Levels)
	}
	seen := map[PhysAddr]bool{}
	for i := 0; i < res.Levels; i++ {
		a := res.PTEAddrs[i]
		if a == 0 {
			t.Fatalf("level %d PTE address is zero", i)
		}
		if seen[a] {
			t.Fatalf("duplicate PTE address %#x", a)
		}
		seen[a] = true
	}
	// 2M walk is one level shorter.
	if err := pt.Map(0x40000000, 0x80000000, Page2M); err != nil {
		t.Fatal(err)
	}
	res, ok = pt.Walk(0x40000000)
	if !ok || res.Levels != 3 {
		t.Fatalf("2M walk levels = %d, want 3", res.Levels)
	}
}

func TestWalkMissTrace(t *testing.T) {
	pt := NewPageTable(nil)
	res, ok := pt.Walk(0x123456789000)
	if ok {
		t.Fatal("empty table translated")
	}
	if res.Levels != 1 {
		t.Fatalf("miss at root should record 1 level, got %d", res.Levels)
	}
}

// Property: walk(map(va)) returns the mapped pa for arbitrary va/frame at
// every page size.
func TestMapWalkProperty(t *testing.T) {
	f := func(vaRaw, frame uint64, sizeSel uint8) bool {
		size := PageSize(sizeSel % 3)
		va := VirtAddr(vaRaw & 0x0000_7fff_ffff_ffff).PageBase(size)
		pa := PhysAddr((frame % (1 << 20)) << size.Shift())
		pt := NewPageTable(nil)
		if err := pt.Map(va, pa, size); err != nil {
			return false
		}
		probe := va + VirtAddr(size.Bytes()/2)
		got, gotSize, ok := pt.Translate(probe)
		return ok && gotSize == size && got == pa+PhysAddr(size.Bytes()/2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAddressSpaceDemandMapping(t *testing.T) {
	as := NewAddressSpace(3)
	if !as.EnsureMapped(0x1000, Page4K) {
		t.Fatal("first EnsureMapped did not map")
	}
	if as.EnsureMapped(0x1000, Page4K) {
		t.Fatal("second EnsureMapped remapped")
	}
	pa, size, ok := as.Translate(0x1234)
	if !ok || size != Page4K {
		t.Fatalf("translate = %v %v", size, ok)
	}
	if pa == 0 {
		t.Fatal("zero physical address")
	}
}

func TestAddressSpacesDisjointPhysical(t *testing.T) {
	a, b := NewAddressSpace(1), NewAddressSpace(2)
	a.EnsureMapped(0x1000, Page4K)
	b.EnsureMapped(0x1000, Page4K)
	paA, _, _ := a.Translate(0x1000)
	paB, _, _ := b.Translate(0x1000)
	if paA == paB {
		t.Fatalf("two address spaces share physical frame %#x", paA)
	}
}

func TestPromote2M(t *testing.T) {
	as := NewAddressSpace(7)
	base := VirtAddr(0x40000000)
	// Pre-map 10 of the 512 pages.
	for i := 0; i < 10; i++ {
		as.EnsureMapped(base+VirtAddr(i*4096), Page4K)
	}
	invs, err := as.Promote2M(base + 0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 10 {
		t.Fatalf("invalidations = %d, want 10 (one per present PTE)", len(invs))
	}
	for _, inv := range invs {
		if inv.Size != Page4K || inv.Ctx != 7 {
			t.Fatalf("bad invalidation %+v", inv)
		}
	}
	// Every covered 4K page must now translate through the superpage.
	for i := 0; i < 512; i++ {
		_, size, ok := as.Translate(base + VirtAddr(i*4096))
		if !ok || size != Page2M {
			t.Fatalf("page %d: ok=%v size=%v", i, ok, size)
		}
	}
	// Promoting an already promoted region fails.
	if _, err := as.Promote2M(base); err == nil {
		t.Fatal("double promotion accepted")
	}
}

func TestDemote2M(t *testing.T) {
	as := NewAddressSpace(9)
	base := VirtAddr(0x80000000)
	if _, err := as.Promote2M(base); err != nil {
		t.Fatal(err)
	}
	pa2m, _, _ := as.Translate(base)
	invs, err := as.Demote2M(base + 0x5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 1 || invs[0].Size != Page2M {
		t.Fatalf("invs = %+v, want single 2M invalidation", invs)
	}
	// Demotion preserves the translation of every covered base page.
	for i := uint64(0); i < 512; i++ {
		pa, size, ok := as.Translate(base + VirtAddr(i*4096))
		if !ok || size != Page4K {
			t.Fatalf("page %d: ok=%v size=%v", i, ok, size)
		}
		if pa != pa2m+PhysAddr(i*4096) {
			t.Fatalf("page %d: pa %#x, want %#x", i, pa, pa2m+PhysAddr(i*4096))
		}
	}
	if _, err := as.Demote2M(base); err == nil {
		t.Fatal("double demotion accepted")
	}
}

// Property: promote-then-demote preserves the translation of every
// previously mapped base page's virtual address (the physical frames may
// move, but mappings must exist and be 4K again).
func TestPromoteDemoteInverseProperty(t *testing.T) {
	f := func(seed uint8) bool {
		as := NewAddressSpace(ContextID(seed))
		base := VirtAddr(0x40000000)
		for i := 0; i < int(seed%64)+1; i++ {
			as.EnsureMapped(base+VirtAddr(i*4096*3), Page4K)
		}
		if _, err := as.Promote2M(base); err != nil {
			return false
		}
		if _, err := as.Demote2M(base); err != nil {
			return false
		}
		for i := 0; i < 512; i++ {
			_, size, ok := as.Translate(base + VirtAddr(i*4096))
			if !ok || size != Page4K {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameAllocDistinct(t *testing.T) {
	a := NewFrameAlloc(100)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		f := a.Alloc()
		if seen[f] {
			t.Fatalf("frame %d handed out twice", f)
		}
		seen[f] = true
	}
	if a.Allocated(100) != 1000 {
		t.Fatalf("Allocated = %d", a.Allocated(100))
	}
}

func TestFrameAllocZeroStart(t *testing.T) {
	a := NewFrameAlloc(0)
	if a.Alloc() == 0 {
		t.Fatal("frame 0 must never be allocated")
	}
	var zero FrameAlloc
	if zero.Alloc() == 0 {
		t.Fatal("zero-value allocator handed out frame 0")
	}
}
