package vm

import "testing"

// benchPages is the working set of the descent benchmarks: 4096 base
// pages spread one per 2 MB region over 8 GB, so successive descents
// cross 1 GB regions and the walk cache hits only part of the time, as
// on a scatter-heavy workload's L1 misses.
const benchPages = 4096

func benchVA(i int) VirtAddr {
	return VirtAddr(uint64(i%benchPages)<<21 | uint64(i%512)<<12)
}

func base4K(VirtAddr) PageSize { return Page4K }

// BenchmarkEnsureHit is the demand-map check of an L1 miss on a mapped
// page: one descent that finds the leaf and maps nothing.
func BenchmarkEnsureHit(b *testing.B) {
	as := NewAddressSpace(1)
	for i := 0; i < benchPages; i++ {
		as.Ensure(benchVA(i), base4K)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, size := as.Ensure(benchVA(i), base4K); size != Page4K {
			b.Fatal("unexpected page size")
		}
	}
}

// BenchmarkEnsureBasePages maps a 2 MB region's 512 base pages in one
// descent, the storm's step before each promotion, into a fresh region
// every iteration. A fresh address space every 256 regions keeps the
// table, which only grows, small.
func BenchmarkEnsureBasePages(b *testing.B) {
	var as *AddressSpace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			b.StopTimer()
			as = NewAddressSpace(1)
			b.StartTimer()
		}
		if as.EnsureBasePages(VirtAddr(uint64(i%256)<<21)) != 512 {
			b.Fatal("region already mapped")
		}
	}
}
