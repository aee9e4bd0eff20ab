package vm

import "fmt"

// AddressSpace is one process: a context ID plus a page table and the
// physical ranges its pages are allocated from. Frame ranges for distinct
// sizes are disjoint by construction so superpage allocation never has
// alignment conflicts with base pages.
type AddressSpace struct {
	Ctx ContextID
	PT  *PageTable

	frames *FrameAlloc // 4K data frames
	tables *FrameAlloc // page-table pages
	next2M uint64      // 2M page counter
	next1G uint64      // 1G page counter
	region uint64      // per-space physical region selector
}

// Physical layout: bits 56-48 select the address space's region; within a
// region, bit 46 set marks 2M-page frames and bit 47 marks 1G-page frames,
// keeping all three allocators trivially disjoint.
const (
	regionShift = 48
	flag2M      = 1 << 46
	flag1G      = 1 << 47
)

// NewAddressSpace returns an empty address space with the given context
// ID. Each context gets a disjoint physical region derived from its ID.
func NewAddressSpace(ctx ContextID) *AddressSpace {
	region := uint64(ctx) + 1
	tableAlloc := NewFrameAlloc(region<<(regionShift-12) | 1)
	return &AddressSpace{
		Ctx:    ctx,
		PT:     NewPageTable(tableAlloc),
		frames: NewFrameAlloc(region<<(regionShift-12) | 1<<30),
		tables: tableAlloc,
		region: region,
	}
}

// extent draws the physical backing of a new page of size s: a fresh 4K
// data frame, or the next 2M or 1G page number of the space's region.
func (as *AddressSpace) extent(s PageSize) PhysAddr {
	switch s {
	case Page2M:
		as.next2M++
		return PhysAddr(as.region<<regionShift | flag2M | as.next2M<<21)
	case Page1G:
		as.next1G++
		return PhysAddr(as.region<<regionShift | flag1G | as.next1G<<30)
	}
	return PhysAddr(as.frames.Alloc() << 12)
}

// EnsureMapped demand-maps the page of the given size covering va, if no
// mapping (of any size) already covers it. It reports whether a new
// mapping was created: none is when a table of smaller pages already
// occupies the extent of a superpage s, and the extent drawn for it
// stays spent.
func (as *AddressSpace) EnsureMapped(va VirtAddr, s PageSize) bool {
	n, level, e := as.PT.find(va)
	if e.present() && e.leaf() {
		return false
	}
	pa := as.extent(s)
	if leafLevel(s) > level {
		return false
	}
	as.PT.mapAt(n, level, va, pa, s)
	return true
}

// Ensure returns the translation of va, demand-mapping its page first
// when no mapping covers it: at size size(va), or at 4 KB when a table
// of base pages already occupies that superpage's extent. It descends
// the page table once and calls size only on a miss. The frames and
// superpage numbers it draws are, in order, those EnsureMapped(va,
// size(va)) draws, followed, when that maps nothing, by those of
// EnsureMapped(va, Page4K).
func (as *AddressSpace) Ensure(va VirtAddr, size func(VirtAddr) PageSize) (PhysAddr, PageSize) {
	n, level, e := as.PT.find(va)
	if !e.present() || !e.leaf() {
		s := size(va)
		pa := as.extent(s)
		if leafLevel(s) > level {
			s, pa = Page4K, as.extent(Page4K)
		}
		e = as.PT.mapAt(n, level, va, pa, s)
		level = leafLevel(s)
	}
	return leafTranslation(va, e, level)
}

// EnsureBasePages demand-maps, in address order, every 4 KB page of the
// 2 MB region containing va that no mapping covers, and returns how many
// it mapped. It leaves the table and the frame allocator as 512
// EnsureMapped(page, Page4K) calls would, but descends to the region's
// leaf table once.
func (as *AddressSpace) EnsureBasePages(va VirtAddr) int {
	base := va.PageBase(Page2M)
	n, level, e := as.PT.find(base)
	if level > 0 && e.present() && e.leaf() {
		return 0 // one superpage covers the whole region
	}
	leaves := as.PT.linkDown(n, level, base, 0)
	mapped := 0
	for idx := 0; idx < ptFanout; idx++ {
		if leaves.get(idx).present() {
			continue
		}
		leaves.set(idx, makeLeafPTE(uint64(as.extent(Page4K))>>Page4K.Shift()))
		mapped++
	}
	as.PT.mapped[Page4K] += uint64(mapped)
	return mapped
}

// Translate walks the page table for va.
func (as *AddressSpace) Translate(va VirtAddr) (PhysAddr, PageSize, bool) {
	return as.PT.Translate(va)
}

// Invalidation is one TLB shootdown unit: invalidate a single page of a
// context.
type Invalidation struct {
	Ctx  ContextID
	VPN  uint64 // page number at Size granularity
	Size PageSize
}

// Promote2M collapses the 2 MB region containing va into one superpage
// backed by a freshly allocated 2 MB extent (the OS copies whatever base
// pages were present into it; absent pages are simply covered by the new
// mapping — no per-page demand-mapping happens first). It returns the
// shootdown invalidations the OS must broadcast: one per previously
// present 4 KB PTE, plus none for the new mapping itself.
func (as *AddressSpace) Promote2M(va VirtAddr) ([]Invalidation, error) {
	base := va.PageBase(Page2M)
	if _, size, ok := as.PT.Translate(base); ok && size != Page4K {
		return nil, fmt.Errorf("vm: Promote2M: va %#x already backed by %s page", uint64(va), size)
	}
	var invs []Invalidation
	for i := uint64(0); i < 512; i++ {
		p := base + VirtAddr(i*Page4K.Bytes())
		if as.PT.Unmap(p, Page4K) {
			invs = append(invs, Invalidation{Ctx: as.Ctx, VPN: p.VPN(Page4K), Size: Page4K})
		}
	}
	as.PT.DropEmptyPT(base)
	pa := PhysAddr(as.region<<regionShift | flag2M | (as.next2M+1)<<21)
	if err := as.PT.Map(base, pa, Page2M); err != nil {
		return invs, fmt.Errorf("vm: Promote2M: %w", err)
	}
	as.next2M++ // counted only once the extent is actually mapped
	return invs, nil
}

// Demote2M splits the 2 MB superpage containing va back into 512 base
// pages. It returns the single invalidation for the superpage entry.
func (as *AddressSpace) Demote2M(va VirtAddr) ([]Invalidation, error) {
	base := va.PageBase(Page2M)
	pa, size, ok := as.PT.Translate(base)
	if !ok || size != Page2M {
		return nil, fmt.Errorf("vm: Demote2M: va %#x not backed by a 2M page", uint64(va))
	}
	if !as.PT.Unmap(base, Page2M) {
		return nil, fmt.Errorf("vm: Demote2M: unmap failed for va %#x", uint64(va))
	}
	invs := []Invalidation{{Ctx: as.Ctx, VPN: base.VPN(Page2M), Size: Page2M}}
	for i := uint64(0); i < 512; i++ {
		p := base + VirtAddr(i*Page4K.Bytes())
		sub := PhysAddr(uint64(pa) + i*Page4K.Bytes())
		if err := as.PT.Map(p, sub, Page4K); err != nil {
			return invs, fmt.Errorf("vm: Demote2M: remap: %w", err)
		}
	}
	return invs, nil
}
