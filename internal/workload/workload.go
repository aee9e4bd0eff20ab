// Package workload provides synthetic address-stream models for the
// paper's benchmark suite (Parsec, CloudSuite, graph500, GUPS and the
// commercial server workloads), plus the stress microbenchmarks of
// Section V.
//
// The real workloads ran on 2 TB machines under Linux 4.14; the paper
// characterizes them solely through their TLB-relevant statistics:
// private L2 TLB miss rates of 5-18 %, shared-TLB miss elimination of
// 40-95 % that grows with core count (Fig. 2), heavy cross-thread sharing
// (shared libraries, OS structures, shared heaps), 50-80 % superpage
// coverage under transparent hugepages, and low concurrency at the shared
// TLB (Fig. 5). Each Spec below is a generative model matched to those
// statistics: a footprint split into a shared and per-thread private
// region, a hot set with Zipf-like skew, a temporal-reuse ring that
// produces realistic L1 TLB hit rates, and a uniform cold tail whose size
// controls the compulsory/capacity miss mix.
package workload

import (
	"math"

	"nocstar/internal/engine"
	"nocstar/internal/vm"
)

// Spec is the generative model of one benchmark.
type Spec struct {
	Name string

	// FootprintPages is the application's total touched pages (4 KiB
	// units) across shared and private regions.
	FootprintPages uint64
	// SharedFrac is the fraction of the footprint (and of non-repeat
	// accesses) in the region shared by all threads of the application.
	SharedFrac float64
	// HotFrac is the fraction of each region that is hot.
	HotFrac float64
	// HotProb is the probability a fresh access goes to the hot set.
	HotProb float64
	// ZipfTheta in [0,1) skews accesses within the hot set (0 = uniform).
	ZipfTheta float64
	// RepeatProb is the probability an access reuses a recently touched
	// page (temporal locality; produces L1 TLB hits).
	RepeatProb float64

	// MemRefPerInstr is the memory references issued per instruction.
	MemRefPerInstr float64
	// BaseCPI is the workload's cycles per instruction excluding address
	// translation stalls.
	BaseCPI float64
	// SuperpageFrac is the fraction of the footprint Linux backs with
	// transparent 2 MB pages (the paper measured 50-80 %).
	SuperpageFrac float64
}

// Suite returns the paper's eleven evaluation workloads in figure order.
func Suite() []Spec {
	// Hot sets are sized slightly above one private L2 TLB (1024 entries)
	// and HotProb keeps cold-tail draws at 4-15 % of fresh accesses, which
	// lands private L2 TLB miss rates in the paper's reported 5-18 % band
	// while the cold tail provides the capacity misses a shared TLB
	// increasingly eliminates at higher core counts (Fig. 2).
	return []Spec{
		{Name: "graph500", FootprintPages: 60000, SharedFrac: 0.90, HotFrac: 0.017,
			HotProb: 0.93, ZipfTheta: 0.60, RepeatProb: 0.90,
			MemRefPerInstr: 0.35, BaseCPI: 1.2, SuperpageFrac: 0.70},
		{Name: "canneal", FootprintPages: 50000, SharedFrac: 0.95, HotFrac: 0.015,
			HotProb: 0.92, ZipfTheta: 0.50, RepeatProb: 0.88,
			MemRefPerInstr: 0.33, BaseCPI: 1.3, SuperpageFrac: 0.60},
		{Name: "xsbench", FootprintPages: 70000, SharedFrac: 0.90, HotFrac: 0.019,
			HotProb: 0.91, ZipfTheta: 0.50, RepeatProb: 0.88,
			MemRefPerInstr: 0.35, BaseCPI: 1.1, SuperpageFrac: 0.70},
		{Name: "datacaching", FootprintPages: 30000, SharedFrac: 0.80, HotFrac: 0.033,
			HotProb: 0.94, ZipfTheta: 0.70, RepeatProb: 0.92,
			MemRefPerInstr: 0.30, BaseCPI: 1.0, SuperpageFrac: 0.50},
		{Name: "swtesting", FootprintPages: 25000, SharedFrac: 0.70, HotFrac: 0.040,
			HotProb: 0.95, ZipfTheta: 0.70, RepeatProb: 0.93,
			MemRefPerInstr: 0.30, BaseCPI: 1.0, SuperpageFrac: 0.50},
		{Name: "graphanalytics", FootprintPages: 55000, SharedFrac: 0.90, HotFrac: 0.0185,
			HotProb: 0.92, ZipfTheta: 0.60, RepeatProb: 0.90,
			MemRefPerInstr: 0.33, BaseCPI: 1.2, SuperpageFrac: 0.60},
		{Name: "nutch", FootprintPages: 28000, SharedFrac: 0.75, HotFrac: 0.038,
			HotProb: 0.94, ZipfTheta: 0.80, RepeatProb: 0.92,
			MemRefPerInstr: 0.28, BaseCPI: 1.1, SuperpageFrac: 0.50},
		{Name: "olio", FootprintPages: 20000, SharedFrac: 0.70, HotFrac: 0.047,
			HotProb: 0.96, ZipfTheta: 0.80, RepeatProb: 0.94,
			MemRefPerInstr: 0.28, BaseCPI: 1.0, SuperpageFrac: 0.50},
		{Name: "redis", FootprintPages: 35000, SharedFrac: 0.80, HotFrac: 0.030,
			HotProb: 0.93, ZipfTheta: 0.90, RepeatProb: 0.91,
			MemRefPerInstr: 0.30, BaseCPI: 1.0, SuperpageFrac: 0.60},
		{Name: "mongodb", FootprintPages: 40000, SharedFrac: 0.80, HotFrac: 0.029,
			HotProb: 0.93, ZipfTheta: 0.80, RepeatProb: 0.91,
			MemRefPerInstr: 0.32, BaseCPI: 1.1, SuperpageFrac: 0.60},
		{Name: "gups", FootprintPages: 90000, SharedFrac: 0.95, HotFrac: 0.0064,
			HotProb: 0.85, ZipfTheta: 0.0, RepeatProb: 0.85,
			MemRefPerInstr: 0.40, BaseCPI: 1.0, SuperpageFrac: 0.80},
	}
}

// ByName returns the suite spec with the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns the suite workload names in figure order.
func Names() []string {
	suite := Suite()
	out := make([]string, len(suite))
	for i, s := range suite {
		out[i] = s.Name
	}
	return out
}

// Virtual layout constants: each application places its shared region at
// a fixed base and gives each thread a private arena.
const (
	sharedBase  vm.VirtAddr = 0x100_0000_0000
	privateBase vm.VirtAddr = 0x4000_0000_0000
	privateStep             = uint64(1) << 38 // 256 GiB per-thread arena spacing
)

// SpreadFactor scatters a workload's touched pages across a virtual span
// SpreadFactor times larger than its touched-page count (~8 touched pages
// per 2 MB extent). The paper's workloads have 2 TB footprints with poor
// spatial density, so their working sets overflow the TLBs at *superpage*
// granularity too — this is what makes Fig. 13's THP runs still exhibit
// frequent L1 TLB misses.
const SpreadFactor = 64

// scatterStride returns a multiplier coprime with span near the golden
// ratio of it, so consecutive page ranks land in far-apart 2 MB extents —
// two hot pages almost never share a superpage, as in a fragmented
// big-data heap.
func scatterStride(span uint64) uint64 {
	if span <= 1 {
		return 1
	}
	stride := uint64(float64(span)*0.6180339887) | 1
	if stride == 0 || stride >= span {
		stride = span/2 | 1
	}
	for gcd(stride, span) != 1 {
		stride -= 2
		if stride < 1 {
			return 1
		}
	}
	return stride
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LineCluster is how many consecutively ranked pages stay adjacent when
// scattered: they share a page-table-entry cache line (8 PTEs per line),
// so similar-frequency pages amortize leaf PTE fetches, while distinct
// clusters land in far-apart 2 MB extents.
const LineCluster = 4

// PageSlot maps the idx-th touched page of a region (of `pages` touched
// pages) to its sparse page offset within the region's span: rank
// clusters of LineCluster stay contiguous, and clusters are scattered by
// a coprime stride — a bijection into the SpreadFactor-larger slot space.
// The OS-side models (shootdown generators) use it to aim at pages the
// workload actually touches.
func PageSlot(idx, pages uint64) uint64 {
	span := pages * SpreadFactor
	if span == 0 {
		return 0
	}
	idx %= pages
	groups := span / LineCluster
	group := idx / LineCluster
	off := idx % LineCluster
	return group*scatterStride(groups)%groups*LineCluster + off
}

// Region is a virtual range of the workload, used by the OS model to
// decide superpage backing. Pages counts the touched (resident) 4 KiB
// pages; Span is the sparse virtual extent they are scattered over.
type Region struct {
	Base  vm.VirtAddr
	Pages uint64 // touched 4 KiB pages
	Span  uint64 // virtual 4 KiB page slots (Pages * SpreadFactor)
}

// End returns the first address past the region's span.
func (r Region) End() vm.VirtAddr {
	return r.Base + vm.VirtAddr(r.Span*vm.Page4K.Bytes())
}

// Regions returns the shared region followed by each thread's private
// region for an application with the given thread count.
func (s Spec) Regions(threads int) []Region {
	shared, private := s.split(threads)
	out := []Region{{Base: sharedBase, Pages: shared, Span: shared * SpreadFactor}}
	for t := 0; t < threads; t++ {
		out = append(out, Region{
			Base:  privateBase + vm.VirtAddr(uint64(t)*privateStep),
			Pages: private,
			Span:  private * SpreadFactor,
		})
	}
	return out
}

// split returns the shared region size and the per-thread private size.
func (s Spec) split(threads int) (shared, private uint64) {
	if threads <= 0 {
		threads = 1
	}
	shared = uint64(float64(s.FootprintPages) * s.SharedFrac)
	if shared < 1 {
		shared = 1
	}
	private = (s.FootprintPages - shared) / uint64(threads)
	if private < 1 {
		private = 1
	}
	return shared, private
}

// page4KBytes hoists vm.Page4K.Bytes() out of the per-reference path.
const page4KBytes = 4096

// recentRing remembers the last touched pages for temporal reuse.
const recentRingSize = 12

// Generator produces one thread's virtual address stream.
type Generator struct {
	spec    Spec
	rng     *engine.Rand
	thread  int
	shared  uint64 // shared region pages
	private uint64 // this thread's private region pages
	privBas vm.VirtAddr

	sharedStride uint64
	privStride   uint64

	ring  [recentRingSize]vm.VirtAddr
	ringN int
	ringW int

	// Sequential-run state: cold draws walk a few consecutive ranks (a
	// scan through an array or log), the spatial locality that the
	// paper's ±k translation prefetching exploits.
	runLeft   int
	runRank   uint64
	runBase   vm.VirtAddr
	runPages  uint64
	runStride uint64

	zipfExp float64

	// Precomputed engine.Threshold values of the spec's probabilities:
	// the hot path decides with one integer compare per draw.
	repeatT, sharedT, hotT, halfT uint64
}

// coldRunLen is the length of a cold sequential scan burst.
const coldRunLen = 4

// NewGenerator builds the address generator for one thread of an
// application with the given total thread count. rng must be a private
// stream for this thread.
func NewGenerator(spec Spec, threads, thread int, rng *engine.Rand) *Generator {
	shared, private := spec.split(threads)
	return &Generator{
		spec:         spec,
		rng:          rng,
		thread:       thread,
		shared:       shared,
		private:      private,
		privBas:      privateBase + vm.VirtAddr(uint64(thread)*privateStep),
		sharedStride: scatterStride(shared * SpreadFactor / LineCluster),
		privStride:   scatterStride(private * SpreadFactor / LineCluster),
		zipfExp:      1 / (1 - clampTheta(spec.ZipfTheta)),
		repeatT:      engine.Threshold(spec.RepeatProb),
		sharedT:      engine.Threshold(spec.SharedFrac),
		hotT:         engine.Threshold(spec.HotProb),
		halfT:        engine.Threshold(0.5),
	}
}

func clampTheta(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t > 0.99 {
		return 0.99
	}
	return t
}

// zipfRank draws a rank in [0, n) with Zipf-like skew: the inverse-CDF
// approximation P(X <= x) ~ (x/n)^(1-theta).
func (g *Generator) zipfRank(rng *engine.Rand, n uint64) uint64 {
	if n <= 1 {
		return 0
	}
	r := uint64(float64(n) * math.Pow(rng.Float64(), g.zipfExp))
	if r >= n {
		r = n - 1
	}
	return r
}

// regionPick draws a page within a region of n pages using the hot/cold
// two-level model, scattering the chosen rank across the sparse span.
func (g *Generator) regionPick(rng *engine.Rand, base vm.VirtAddr, n, stride uint64) vm.VirtAddr {
	hot := uint64(float64(n) * g.spec.HotFrac)
	if hot < 1 {
		hot = 1
	}
	var page uint64
	if rng.Below(g.hotT) || hot >= n {
		page = g.zipfRank(rng, hot)
	} else {
		page = hot + rng.Uint64n(n-hot)
		// Begin a sequential scan over the following ranks.
		g.runLeft = coldRunLen - 1
		g.runRank = page
		g.runBase = base
		g.runPages = n
		g.runStride = stride
	}
	return base + vm.VirtAddr(slotFor(page, n, stride)*vm.Page4K.Bytes())
}

// slotFor scatters rank `page` of an n-page region using the cached
// group stride.
func slotFor(page, n, stride uint64) uint64 {
	groups := n * SpreadFactor / LineCluster
	return page/LineCluster*stride%groups*LineCluster + page%LineCluster
}

// next draws one address using rng, which is either the generator's own
// stream (scalar Next) or a stack-local copy of it (NextBatch). Single
// body for both paths so they cannot diverge: every rng draw happens in
// the same order with the same bounds.
func (g *Generator) next(rng *engine.Rand) vm.VirtAddr {
	if g.ringN > 0 && rng.Below(g.repeatT) {
		// Reuse a recent page, geometrically favouring the most recent.
		idx := 0
		for idx < g.ringN-1 && rng.Below(g.halfT) {
			idx++
		}
		pos := (g.ringW - 1 - idx + recentRingSize) % recentRingSize
		va := g.ring[pos]
		return va + vm.VirtAddr(rng.Uint64n(page4KBytes)&^7)
	}

	var va vm.VirtAddr
	if g.runLeft > 0 {
		g.runLeft--
		g.runRank = (g.runRank + 1) % g.runPages
		va = g.runBase + vm.VirtAddr(slotFor(g.runRank, g.runPages, g.runStride)*vm.Page4K.Bytes())
	} else if rng.Below(g.sharedT) {
		va = g.regionPick(rng, sharedBase, g.shared, g.sharedStride)
	} else {
		va = g.regionPick(rng, g.privBas, g.private, g.privStride)
	}
	g.ring[g.ringW] = va
	g.ringW = (g.ringW + 1) % recentRingSize
	if g.ringN < recentRingSize {
		g.ringN++
	}
	return va + vm.VirtAddr(rng.Uint64n(page4KBytes)&^7)
}

// Next returns the next virtual address of this thread's stream.
func (g *Generator) Next() vm.VirtAddr { return g.next(g.rng) }

// NextBatch fills buf with the next len(buf) addresses of the stream. It
// produces exactly the sequence len(buf) calls to Next would: the only
// difference is that the RNG state lives in a stack local for the whole
// batch instead of being loaded and stored per reference.
func (g *Generator) NextBatch(buf []vm.VirtAddr) {
	rng := *g.rng
	for i := range buf {
		buf[i] = g.next(&rng)
	}
	*g.rng = rng
}

// Spec returns the generator's workload spec.
func (g *Generator) Spec() Spec { return g.spec }

// Uniform returns a microbenchmark spec touching pages uniformly at
// random over the given footprint — the TLB-storm microbenchmark's own
// access pattern and the slice-hammer driver.
func Uniform(name string, pages uint64) Spec {
	return Spec{
		Name:           name,
		FootprintPages: pages,
		SharedFrac:     1.0,
		HotFrac:        1.0,
		HotProb:        1.0,
		ZipfTheta:      0,
		RepeatProb:     0.5,
		MemRefPerInstr: 0.5,
		BaseCPI:        1.0,
		SuperpageFrac:  0,
	}
}
