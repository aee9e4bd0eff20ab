// Package vm is the virtual-memory substrate under the TLB studies: x86-64
// style addresses and page sizes, a 4-level radix page table, per-process
// address spaces with context IDs, a physical frame allocator, transparent
// 2 MB superpage promotion/demotion, and TLB shootdown (IPI) event
// generation. The paper's workloads run on Linux 4.14 with transparent
// superpages; this package is the stand-in for that OS behaviour.
package vm

import "fmt"

// VirtAddr is a virtual byte address.
type VirtAddr uint64

// PhysAddr is a physical byte address.
type PhysAddr uint64

// PageSize enumerates the x86-64 page sizes the TLBs must handle.
type PageSize uint8

const (
	// Page4K is a 4 KiB base page.
	Page4K PageSize = iota
	// Page2M is a 2 MiB superpage (PD-level leaf).
	Page2M
	// Page1G is a 1 GiB superpage (PDPT-level leaf).
	Page1G
)

// Shift returns log2 of the page size in bytes.
func (s PageSize) Shift() uint {
	switch s {
	case Page4K:
		return 12
	case Page2M:
		return 21
	case Page1G:
		return 30
	}
	panic(fmt.Sprintf("vm: invalid page size %d", s))
}

// Bytes returns the page size in bytes.
func (s PageSize) Bytes() uint64 { return 1 << s.Shift() }

// String implements fmt.Stringer.
func (s PageSize) String() string {
	switch s {
	case Page4K:
		return "4K"
	case Page2M:
		return "2M"
	case Page1G:
		return "1G"
	}
	return fmt.Sprintf("PageSize(%d)", uint8(s))
}

// VPNLimit bounds every 4 KiB virtual page number the model handles:
// 2^45 pages make 128 PiB, beyond every layout constant in the model.
// The TLBs' packed keys hold the VPN in 45 bits, and trace.Read rejects
// a page at or above the limit.
const VPNLimit = uint64(1) << 45

// VPN returns the virtual page number of va at page size s.
func (va VirtAddr) VPN(s PageSize) uint64 { return uint64(va) >> s.Shift() }

// PageBase returns va rounded down to its page boundary at size s.
func (va VirtAddr) PageBase(s PageSize) VirtAddr {
	return VirtAddr(uint64(va) &^ (s.Bytes() - 1))
}

// Offset returns the within-page offset of va at size s.
func (va VirtAddr) Offset(s PageSize) uint64 { return uint64(va) & (s.Bytes() - 1) }

// FrameSize is the size of one physical frame / page-table page.
const FrameSize = 4096

// ContextID identifies an address space (an ASID / PCID analogue). TLB
// entries are tagged with it so multiprogrammed workloads can coexist.
type ContextID uint16
