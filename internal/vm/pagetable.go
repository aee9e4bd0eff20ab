package vm

import "fmt"

// Page-table geometry: x86-64 4-level radix. Each level indexes 9 bits of
// the virtual address; leaves may appear at the PT (4K), PD (2M), or PDPT
// (1G) levels.
const (
	ptLevels     = 4
	ptFanout     = 512
	ptIndexBits  = 9
	ptIndexMask  = ptFanout - 1
	pteBytes     = 8
	vaLevelShift = 12 // level-0 (PT) indexing starts above the 4K offset
)

// levelShift returns the VA shift of the index for the given level, where
// level 3 is the root (PML4) and level 0 is the leaf PT.
func levelShift(level int) uint {
	return uint(vaLevelShift + ptIndexBits*level)
}

// levelIndex extracts the radix index of va at the given level.
func levelIndex(va VirtAddr, level int) int {
	return int(uint64(va)>>levelShift(level)) & ptIndexMask
}

// pte is an in-memory page table entry, packed like hardware PTEs so a
// fully materialized table page costs 4 KiB: bit 0 = present, bit 1 =
// leaf, bits 2+ = PFN.
type pte uint64

const (
	ptePresent  pte = 1 << 0
	pteLeaf     pte = 1 << 1
	ptePFNShift     = 2
)

func (e pte) present() bool { return e&ptePresent != 0 }
func (e pte) leaf() bool    { return e&pteLeaf != 0 }
func (e pte) pfn() uint64   { return uint64(e) >> ptePFNShift }

func makeLeafPTE(pfn uint64) pte { return pte(pfn<<ptePFNShift) | ptePresent | pteLeaf }

// ptNode is one page of a page table, stored adaptively. Scatter-heavy
// workloads materialize hundreds of thousands of leaf PT pages holding
// only a handful of present entries each; a full 512-entry array per
// node made page tables the dominant allocation in the whole simulator
// (gigabytes per sweep, most of it zeroes). A node therefore starts as
// a small inline (slot, pte) array and upgrades to the full array only
// once it holds more than sparseMax entries — dense interior nodes and
// genuinely hot leaf pages upgrade, the long sparse tail stays at ~128
// bytes. The sparse arrays store only present (non-zero) PTEs, in no
// particular slot order.
//
// Children are identified by arena index rather than pointer, and the
// index array is allocated lazily (leaf PT pages never need one). Index
// 0 is the root, which is never anyone's child, so 0 doubles as "no
// child".
type ptNode struct {
	frame    uint64         // physical frame holding this table page
	full     *[ptFanout]pte // nil while the node is sparse
	children []int32        // nil until the first child is linked; 0 = none
	n        uint16         // sparse entries in use (full == nil)
	sidx     [sparseMax]uint16
	sval     [sparseMax]pte
}

// sparseMax is the inline-entry capacity before a node upgrades to a
// full array. Eight covers cold-run and prefetch clusters on one cache
// line of slot indices.
const sparseMax = 8

// get returns the PTE at slot idx, or 0 when absent.
func (n *ptNode) get(idx int) pte {
	if n.full != nil {
		return n.full[idx]
	}
	for i := 0; i < int(n.n); i++ {
		if n.sidx[i] == uint16(idx) {
			return n.sval[i]
		}
	}
	return 0
}

// set stores e at slot idx. Storing 0 removes the entry. Every non-zero
// pte has the present bit set, so the sparse form never stores zeroes.
func (n *ptNode) set(idx int, e pte) {
	if n.full != nil {
		n.full[idx] = e
		return
	}
	for i := 0; i < int(n.n); i++ {
		if n.sidx[i] == uint16(idx) {
			if e == 0 {
				last := n.n - 1
				n.sidx[i], n.sval[i] = n.sidx[last], n.sval[last]
				n.sidx[last], n.sval[last] = 0, 0
				n.n = last
			} else {
				n.sval[i] = e
			}
			return
		}
	}
	if e == 0 {
		return
	}
	if n.n < sparseMax {
		n.sidx[n.n] = uint16(idx)
		n.sval[n.n] = e
		n.n++
		return
	}
	full := new([ptFanout]pte)
	for i := 0; i < int(n.n); i++ {
		full[n.sidx[i]] = n.sval[i]
	}
	full[idx] = e
	n.full = full
	n.n = 0
	n.sidx = [sparseMax]uint16{}
	n.sval = [sparseMax]pte{}
}

// empty reports whether the node holds no present entries.
func (n *ptNode) empty() bool {
	if n.full == nil {
		return n.n == 0
	}
	for i := range n.full {
		if n.full[i].present() {
			return false
		}
	}
	return true
}

// child returns the arena index of the child at idx, or 0.
func (n *ptNode) child(idx int) int32 {
	if n.children == nil {
		return 0
	}
	return n.children[idx]
}

// setChild links a child node at idx.
func (n *ptNode) setChild(idx int, c int32) {
	if n.children == nil {
		n.children = make([]int32, ptFanout)
	}
	n.children[idx] = c
}

// FrameAlloc hands out physical frames. The zero value allocates from
// frame 1 upward (frame 0 is reserved so a zero PhysAddr is never valid).
type FrameAlloc struct {
	next uint64
}

// NewFrameAlloc returns an allocator whose first frame is start. Distinct
// address spaces are given disjoint ranges by the OS model.
func NewFrameAlloc(start uint64) *FrameAlloc {
	if start == 0 {
		start = 1
	}
	return &FrameAlloc{next: start}
}

// Alloc returns a fresh frame number.
func (a *FrameAlloc) Alloc() uint64 {
	if a.next == 0 {
		a.next = 1
	}
	f := a.next
	a.next++
	return f
}

// Allocated reports how many frames have been handed out.
func (a *FrameAlloc) Allocated(start uint64) uint64 {
	if start == 0 {
		start = 1
	}
	if a.next <= start {
		return 0
	}
	return a.next - start
}

// WalkResult describes a completed page-table walk: the translation and
// the physical address of the PTE read at each level, root first. The
// page-table walker uses those addresses to charge cache-hierarchy
// latency per level.
type WalkResult struct {
	PA       PhysAddr
	Size     PageSize
	Levels   int // number of memory references the walk made
	PTEAddrs [ptLevels]PhysAddr
}

// Arena chunking: nodes are stored in fixed-capacity chunks so growing
// the arena never copies existing nodes (a flat append-doubled slice
// re-copies ~2x the final arena — hundreds of megabytes per run — and
// was measurably slower than per-node allocation). Chunks also keep node
// addresses stable, so traversals may hold *ptNode across addNode.
const (
	ptChunkShift = 10 // 1024 nodes (~128 KiB) per chunk
	ptChunkSize  = 1 << ptChunkShift
	ptChunkMask  = ptChunkSize - 1
)

// PageTable is a 4-level x86-64-style page table. All nodes live in a
// chunked arena; node 0 is the root (PML4).
type PageTable struct {
	chunks [][]ptNode
	count  int32
	alloc  *FrameAlloc
	// mapped counts leaf mappings by size, for accounting.
	mapped [3]uint64

	// One-entry walk cache: the PD node covering the last walked 1G
	// region, plus the two upper-level PTE addresses a walk through it
	// reports. Walks within the same region resume at the PD level.
	// Purely an accelerator — cached walks return byte-identical
	// WalkResults — so any mutation just invalidates it. Node addresses
	// are stable across addNode, making the held pointer safe.
	wcValid  bool
	wcPrefix uint64 // va >> 30
	wcNode   *ptNode
	wcAddrs  [2]PhysAddr
}

// NewPageTable returns an empty table drawing table pages from alloc.
func NewPageTable(alloc *FrameAlloc) *PageTable {
	if alloc == nil {
		alloc = NewFrameAlloc(1)
	}
	pt := &PageTable{alloc: alloc}
	pt.addNode() // index 0: the root
	return pt
}

// node returns the arena node at index i. The address is stable for the
// life of the table.
func (pt *PageTable) node(i int32) *ptNode {
	return &pt.chunks[i>>ptChunkShift][i&ptChunkMask]
}

// addNode appends a fresh table page to the arena and returns its index.
func (pt *PageTable) addNode() int32 {
	i := pt.count
	if int(i>>ptChunkShift) == len(pt.chunks) {
		pt.chunks = append(pt.chunks, make([]ptNode, 0, ptChunkSize))
	}
	ck := &pt.chunks[len(pt.chunks)-1]
	*ck = append(*ck, ptNode{frame: pt.alloc.Alloc()})
	pt.count++
	return i
}

// leafLevel returns the radix level at which a page of size s terminates.
func leafLevel(s PageSize) int {
	switch s {
	case Page4K:
		return 0
	case Page2M:
		return 1
	case Page1G:
		return 2
	}
	panic("vm: invalid page size")
}

// Map installs va -> pa at page size s. Both addresses must be aligned to
// s. Mapping over an existing leaf of a different size is an error;
// remapping the same page updates it in place.
func (pt *PageTable) Map(va VirtAddr, pa PhysAddr, s PageSize) error {
	if va.Offset(s) != 0 {
		return fmt.Errorf("vm: Map: va %#x not %s-aligned", uint64(va), s)
	}
	if uint64(pa)&(s.Bytes()-1) != 0 {
		return fmt.Errorf("vm: Map: pa %#x not %s-aligned", uint64(pa), s)
	}
	target := leafLevel(s)
	pt.wcValid = false
	n := pt.node(0)
	for level := ptLevels - 1; level > target; level-- {
		idx := levelIndex(va, level)
		e := n.get(idx)
		if e.present() && e.leaf() {
			return fmt.Errorf("vm: Map: va %#x covered by existing %s leaf at level %d",
				uint64(va), leafSizeAtLevel(level), level)
		}
		ci := n.child(idx)
		if ci == 0 {
			ci = pt.addNode()
			n.setChild(idx, ci)
			n.set(idx, ptePresent)
		}
		n = pt.node(ci)
	}
	idx := levelIndex(va, target)
	e := n.get(idx)
	if e.present() && !e.leaf() {
		return fmt.Errorf("vm: Map: va %#x: %s leaf would overwrite a page-table subtree",
			uint64(va), s)
	}
	if !e.present() {
		pt.mapped[s]++
	}
	n.set(idx, makeLeafPTE(uint64(pa)>>s.Shift()))
	return nil
}

// leafSizeAtLevel maps a radix level to the page size of a leaf there.
func leafSizeAtLevel(level int) PageSize {
	switch level {
	case 0:
		return Page4K
	case 1:
		return Page2M
	case 2:
		return Page1G
	}
	panic("vm: no leaf size at level")
}

// Unmap removes the leaf mapping covering va at exactly size s. It reports
// whether a mapping was removed.
func (pt *PageTable) Unmap(va VirtAddr, s PageSize) bool {
	target := leafLevel(s)
	pt.wcValid = false
	n := pt.node(0)
	for level := ptLevels - 1; level > target; level-- {
		idx := levelIndex(va, level)
		ci := n.child(idx)
		if ci == 0 {
			return false
		}
		n = pt.node(ci)
	}
	idx := levelIndex(va, target)
	e := n.get(idx)
	if !e.present() || !e.leaf() {
		return false
	}
	n.set(idx, 0)
	pt.mapped[s]--
	return true
}

// Walk translates va, returning the full walk trace. ok is false when no
// mapping covers va (a page fault in a real system).
func (pt *PageTable) Walk(va VirtAddr) (WalkResult, bool) {
	var res WalkResult
	var n *ptNode
	startLevel := ptLevels - 1
	if pt.wcValid && uint64(va)>>30 == pt.wcPrefix {
		// Same 1G region as the last walk: the PML4 and PDPT steps
		// repeat verbatim, so replay their recorded PTE addresses and
		// resume the descent at the cached PD node.
		res.PTEAddrs[0] = pt.wcAddrs[0]
		res.PTEAddrs[1] = pt.wcAddrs[1]
		res.Levels = 2
		n = pt.wcNode
		startLevel = 1
	} else {
		n = pt.node(0)
	}
	for level := startLevel; level >= 0; level-- {
		idx := levelIndex(va, level)
		e := n.get(idx)
		res.PTEAddrs[res.Levels] = PhysAddr(n.frame*FrameSize + uint64(idx)*pteBytes)
		res.Levels++
		if !e.present() {
			return res, false
		}
		if e.leaf() {
			size := leafSizeAtLevel(level)
			res.Size = size
			res.PA = PhysAddr(e.pfn()<<size.Shift() | uint64(va.Offset(size)))
			return res, true
		}
		n = pt.node(n.child(idx))
		if level == 2 {
			pt.wcValid = true
			pt.wcPrefix = uint64(va) >> 30
			pt.wcNode = n
			pt.wcAddrs[0] = res.PTEAddrs[0]
			pt.wcAddrs[1] = res.PTEAddrs[1]
		}
	}
	return res, false
}

// Translate is a convenience wrapper returning just the physical address.
func (pt *PageTable) Translate(va VirtAddr) (PhysAddr, PageSize, bool) {
	res, ok := pt.Walk(va)
	if !ok {
		return 0, Page4K, false
	}
	return res.PA, res.Size, true
}

// DropEmptyPT removes the leaf-level page-table page covering va when it
// holds no present entries, clearing the parent PD slot so a 2M leaf can
// be installed there. It reports whether a table page was removed. This is
// what an OS does when collapsing base pages into a superpage.
func (pt *PageTable) DropEmptyPT(va VirtAddr) bool {
	pt.wcValid = false
	n := pt.node(0)
	for level := ptLevels - 1; level > 1; level-- {
		idx := levelIndex(va, level)
		ci := n.child(idx)
		if ci == 0 {
			return false
		}
		n = pt.node(ci)
	}
	idx := levelIndex(va, 1)
	ci := n.child(idx)
	if ci == 0 {
		return false
	}
	child := pt.node(ci)
	if !child.empty() {
		return false
	}
	// The dropped node stays in the arena, unreferenced; arenas only
	// grow within a run and promotions are bounded, so the leak is
	// negligible and keeps every other node index stable.
	n.setChild(idx, 0)
	n.set(idx, 0)
	return true
}

// MappedCount reports the number of leaf mappings at size s.
func (pt *PageTable) MappedCount(s PageSize) uint64 { return pt.mapped[s] }
