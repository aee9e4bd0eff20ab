package workload

import (
	"reflect"
	"testing"

	"nocstar/internal/engine"
	"nocstar/internal/vm"
)

// TestBatchMatchesScalar pins the batched generator's core contract: for
// every workload family and any mix of batch sizes, NextBatch produces
// exactly the address stream Next would, and leaves the generator in the
// same state (so batch and scalar consumers can interleave freely and a
// phase boundary reached through either finds the same generator).
func TestBatchMatchesScalar(t *testing.T) {
	specs := Suite()
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 992288} {
				for _, threads := range []int{1, 3} {
					scalar := NewGenerator(spec, threads, 0, engine.NewRand(seed))
					batch := NewGenerator(spec, threads, 0, engine.NewRand(seed))

					const total = 10_000
					want := make([]vm.VirtAddr, total)
					for i := range want {
						want[i] = scalar.Next()
					}

					// Consume the same stream through ragged batch sizes,
					// including size 1 and a scalar call mid-stream.
					sizes := []int{1, 13, 1024, 7, 256, 1, 64}
					got := make([]vm.VirtAddr, 0, total)
					si := 0
					for len(got) < total {
						n := sizes[si%len(sizes)]
						si++
						if si%5 == 0 {
							got = append(got, batch.Next())
							continue
						}
						if rem := total - len(got); n > rem {
							n = rem
						}
						buf := make([]vm.VirtAddr, n)
						batch.NextBatch(buf)
						got = append(got, buf...)
					}

					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed %d threads %d: ref %d: batch %#x, scalar %#x",
								seed, threads, i, got[i], want[i])
						}
					}
					if !reflect.DeepEqual(scalar, batch) {
						t.Fatalf("seed %d threads %d: generator states diverge after identical streams",
							seed, threads)
					}
				}
			}
		})
	}
}

// TestBatchDistinctSeedsDiverge guards against a batch implementation
// that reuses one RNG draw across a buffer: distinct seeds must produce
// distinct streams.
func TestBatchDistinctSeedsDiverge(t *testing.T) {
	spec := Suite()[0]
	a := NewGenerator(spec, 1, 0, engine.NewRand(1))
	b := NewGenerator(spec, 1, 0, engine.NewRand(2))
	bufA := make([]vm.VirtAddr, 512)
	bufB := make([]vm.VirtAddr, 512)
	a.NextBatch(bufA)
	b.NextBatch(bufB)
	same := 0
	for i := range bufA {
		if bufA[i] == bufB[i] {
			same++
		}
	}
	if same == len(bufA) {
		t.Fatal("distinct seeds produced identical batches")
	}
}
