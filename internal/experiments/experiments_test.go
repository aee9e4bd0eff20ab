package experiments

import (
	"strings"
	"testing"

	"nocstar/internal/runner"
)

// testOptions shrinks runs for test speed while keeping enough work for
// the qualitative shapes to emerge. A reduced workload set covers the
// three behaviour classes: poor locality (canneal, gups), moderate
// (graph500), good (olio).
func testOptions() Options {
	return Options{
		Instr:     60_000,
		Seed:      1,
		Workloads: []string{"canneal", "graph500", "olio", "gups"},
	}
}

func TestFig2Shape(t *testing.T) {
	r := Fig2(testOptions())
	if len(r.Workloads) != 4 {
		t.Fatalf("workloads = %v", r.Workloads)
	}
	for _, w := range r.Workloads {
		for _, c := range r.Cores {
			v := r.Eliminated[w][c]
			if v < 10 || v > 100 {
				t.Fatalf("%s @%d cores: elimination %.1f%% outside plausible band", w, c, v)
			}
		}
		// Elimination must grow with core count (the paper's key trend).
		if r.Eliminated[w][64] <= r.Eliminated[w][16] {
			t.Fatalf("%s: elimination did not grow with cores: %v", w, r.Eliminated[w])
		}
	}
	if !strings.Contains(r.Render(), "average") {
		t.Fatal("render missing average row")
	}
}

func TestFig3Anchors(t *testing.T) {
	r := Fig3()
	if len(r.Multipliers) != 8 {
		t.Fatalf("points = %d", len(r.Multipliers))
	}
	if r.Cycles[1] != 9 {
		t.Fatalf("1x latency = %d, want 9", r.Cycles[1])
	}
	for i := 1; i < len(r.Cycles); i++ {
		if r.Cycles[i] < r.Cycles[i-1] {
			t.Fatal("latency curve not monotone")
		}
	}
	if !strings.Contains(r.Render(), "0.5x") {
		t.Fatal("render missing sizes")
	}
}

func TestFig4LatencyOrdering(t *testing.T) {
	r := Fig4(testOptions())
	// Lower forced access latency must never hurt: 9cc >= 16cc >= 25cc.
	for _, w := range r.Workloads {
		s := r.Speedup[w]
		if s["Shared(9-cc)"] < s["Shared(16-cc)"] || s["Shared(16-cc)"] < s["Shared(25-cc)"] {
			t.Fatalf("%s: speedups not ordered by latency: %v", w, s)
		}
	}
	// The paper's 25-cycle configuration dips 10-15% below the 9-cycle
	// one. Our absolute levels sit higher (variable page walks make the
	// hit-rate gains worth more; see EXPERIMENTS.md), but the relative
	// latency penalty must reproduce.
	lo, hi := r.Average("Shared(25-cc)"), r.Average("Shared(9-cc)")
	if hi/lo < 1.08 {
		t.Fatalf("9-cc (%.3f) not clearly above 25-cc (%.3f)", hi, lo)
	}
}

func TestFig5MostAccessesLowConcurrency(t *testing.T) {
	r := Fig5(testOptions())
	for _, w := range r.Workloads {
		f := r.Fractions[w]
		low := f[0] + f[1] + f[2] // 1, 2-4, 5-8
		if low < 0.5 {
			t.Fatalf("%s: only %.2f of accesses at low concurrency", w, low)
		}
	}
}

func TestFig6SmallerL1MoreContention(t *testing.T) {
	o := testOptions()
	o.Workloads = []string{"canneal", "olio"}
	r := Fig6(o)
	weight := func(f []float64) float64 {
		// Expected concurrency proxy: weight buckets by their midpoint.
		mids := []float64{1, 3, 6.5, 10.5, 14.5, 18.5, 22.5, 26.5, 31}
		sum := 0.0
		for i, v := range f {
			sum += v * mids[i]
		}
		return sum
	}
	if weight(r.Left["0.5xL1"]) <= weight(r.Left["1.5xL1"]) {
		t.Fatalf("smaller L1 TLBs did not raise concurrency: %.2f vs %.2f",
			weight(r.Left["0.5xL1"]), weight(r.Left["1.5xL1"]))
	}
	// Per-slice concurrency stays low even at high slice counts
	// (Fig. 6 right: ~60% of accesses contention-free at 256-512).
	for _, label := range r.RightLabels {
		f := r.Right[label]
		if f[0]+f[1] < 0.4 {
			t.Fatalf("%s: per-slice concurrency too high: %v", label, f)
		}
	}
}

func TestFig9Published(t *testing.T) {
	r := Fig9()
	if r.Costs.SRAMPowerMW != 10.91 {
		t.Fatal("Fig. 9 numbers drifted")
	}
	if !strings.Contains(r.Render(), "Arbiters") {
		t.Fatal("render missing components")
	}
}

func TestFig11aOrdering(t *testing.T) {
	r := Fig11a()
	// At every nonzero hop count: NOCSTAR < distributed < monolithic,
	// and higher HPCmax is never slower.
	for i, h := range r.Hops {
		if h == 0 {
			continue
		}
		m := r.Latency["Monolithic"][i]
		d := r.Latency["Distributed"][i]
		n4 := r.Latency["NOCSTAR-HPC4"][i]
		n8 := r.Latency["NOCSTAR-HPC8"][i]
		n16 := r.Latency["NOCSTAR-HPC16"][i]
		if !(n16 <= n8 && n8 <= n4 && n4 <= d && d < m) {
			t.Fatalf("h=%d: ordering broken: m=%d d=%d n4=%d n8=%d n16=%d", h, m, d, n4, n8, n16)
		}
		if h >= 4 && n4 >= d {
			t.Fatalf("h=%d: NOCSTAR not strictly below distributed", h)
		}
	}
	// The paper's extremes: monolithic reaches ~40 cycles at 12 hops,
	// NOCSTAR stays near the slice latency.
	last := len(r.Hops) - 1
	if r.Latency["Monolithic"][last] < 35 || r.Latency["NOCSTAR-HPC16"][last] > 13 {
		t.Fatalf("extremes off: mono=%d nocstar=%d",
			r.Latency["Monolithic"][last], r.Latency["NOCSTAR-HPC16"][last])
	}
}

func TestFig11bShape(t *testing.T) {
	r := Fig11b()
	last := len(r.Hops) - 1
	m := r.Energy["M"][last]
	d := r.Energy["D"][last]
	n := r.Energy["N"][last]
	if !(n.Total() < d.Total() && d.Total() < m.Total()) {
		t.Fatalf("energy ordering broken: N=%v D=%v M=%v", n.Total(), d.Total(), m.Total())
	}
	if n.Control <= d.Control {
		t.Fatal("NOCSTAR control energy should exceed distributed")
	}
}

func TestFig11cContentionGrowsWithRate(t *testing.T) {
	o := testOptions()
	r := Fig11c(o)
	if len(r.Rates) != 9 {
		t.Fatalf("rates = %v", r.Rates)
	}
	first, last := r.NoContention[0], r.NoContention[len(r.NoContention)-1]
	if first <= last {
		t.Fatalf("contention-free fraction did not drop with rate: %.1f -> %.1f", first, last)
	}
	// Paper: at 0.1 injection the average latency stays within ~3 cycles.
	for i, rate := range r.Rates {
		if rate == 0.1 && r.NocstarLat[i] > 4 {
			t.Fatalf("latency at 0.1 injection = %.2f, paper reports <=3", r.NocstarLat[i])
		}
	}
	// NOCSTAR under load stays well below the multi-hop mesh reference.
	if r.NocstarLat[4] >= r.MeshLat[4] {
		t.Fatalf("NOCSTAR %.2f not below mesh %.2f", r.NocstarLat[4], r.MeshLat[4])
	}
}

// TestFig11cPointPinned pins one Fig. 11(c) injection point exactly, at
// a low and a high rate, so a change to how the injector or the fabric
// schedules its work cannot move the figure unnoticed.
func TestFig11cPointPinned(t *testing.T) {
	for _, c := range []struct {
		rate        float64
		lat, noCont float64
	}{
		{0.1, 2.24473786407767, 0.8353398058252427},
		{0.4, 29.90033066583185, 0.4466336653035669},
	} {
		lat, free := Fig11cPoint(64, c.rate, 2000, 1)
		if lat != c.lat || free != c.noCont {
			t.Errorf("rate %.1f: (avgLat, noContention) = (%v, %v), want (%v, %v)",
				c.rate, lat, free, c.lat, c.noCont)
		}
	}
}

func TestFig12Ordering(t *testing.T) {
	r := Fig12(testOptions())
	mono := r.Average("Monolithic")
	dist := r.Average("Distributed")
	ns := r.Average("NOCSTAR")
	ideal := r.Average("Ideal")
	if !(mono < ns && dist < ns && ns <= ideal*1.001) {
		t.Fatalf("ordering broken: mono=%.3f dist=%.3f ns=%.3f ideal=%.3f", mono, dist, ns, ideal)
	}
	if ns < 1.05 {
		t.Fatalf("NOCSTAR average %.3f, expected >1.05", ns)
	}
	if ns < 0.92*ideal {
		t.Fatalf("NOCSTAR %.3f not within ~95%% of ideal %.3f", ns, ideal)
	}
}

func TestFig13SuperpagesStillWin(t *testing.T) {
	r := Fig13(testOptions())
	ns := r.Average("NOCSTAR")
	if ns < 1.04 {
		t.Fatalf("NOCSTAR with THP = %.3f, expected clear speedup", ns)
	}
	if r.Average("Monolithic") >= ns {
		t.Fatal("monolithic beat NOCSTAR under THP")
	}
}

func TestFig14Scaling(t *testing.T) {
	o := testOptions()
	o.Workloads = []string{"canneal", "gups"}
	o.Instr = 40_000
	r := Fig14(o)
	get := func(cores int, org string) Fig14Row {
		for _, row := range r.Rows {
			if row.Cores == cores && row.Org == org {
				return row
			}
		}
		t.Fatalf("missing row %d/%s", cores, org)
		return Fig14Row{}
	}
	for _, cores := range []int{16, 32, 64} {
		ns := get(cores, "NOCSTAR")
		if ns.Avg <= get(cores, "Monolithic").Avg || ns.Avg <= get(cores, "Distributed").Avg {
			t.Fatalf("%d cores: NOCSTAR not best", cores)
		}
		if ns.EnergySaved <= 0 {
			t.Fatalf("%d cores: NOCSTAR saved no energy", cores)
		}
		if ns.Min > ns.Avg || ns.Avg > ns.Max {
			t.Fatalf("%d cores: min/avg/max inconsistent", cores)
		}
	}
	// NOCSTAR's advantage grows with core count.
	if get(64, "NOCSTAR").Avg <= get(16, "NOCSTAR").Avg {
		t.Fatal("NOCSTAR speedup did not grow with cores")
	}
}

// TestFig14RunsEachConfigOnce: Fig. 14 reads each (cores, org,
// workload) run for both its speedup and its energy saved, so the pool
// executes one private baseline per workload and core count plus one
// run per organization, and nothing twice. The seed is used by no other
// test, so no baseline is memoized beforehand.
func TestFig14RunsEachConfigOnce(t *testing.T) {
	o := Options{Instr: 5_000, Seed: 14, Workloads: []string{"canneal", "gups"}, CoreCounts: []int{16}}
	before := runner.Default().Progress().Submitted
	r := Fig14(o)
	got := runner.Default().Progress().Submitted - before
	const orgs = 3
	want := uint64(len(o.CoreCounts) * len(o.Workloads) * (1 + orgs))
	if got != want {
		t.Fatalf("Fig. 14 executed %d runs, want %d (a baseline and %d orgs per workload)", got, want, orgs)
	}
	if len(r.Rows) != orgs {
		t.Fatalf("rows = %d, want %d", len(r.Rows), orgs)
	}
}

// TestSharedConfigsRunOnce: figures that share configurations execute
// each once per process. Fig. 5's runs are Fig. 15's NOCSTAR column, and
// Fig. 14's 16-core runs and baselines are Fig. 13's. The seed is used by
// no other test, so nothing is memoized beforehand.
func TestSharedConfigsRunOnce(t *testing.T) {
	o := Options{Instr: 5_000, Seed: 35, Workloads: []string{"canneal", "gups"}}
	executed := func(fn func()) uint64 {
		before := runner.Default().Progress().Submitted
		fn()
		return runner.Default().Progress().Submitted - before
	}
	// A baseline and 6 organizations per workload.
	if n, want := executed(func() { Fig15(o) }), uint64(len(o.Workloads)*7); n != want {
		t.Fatalf("Fig. 15 executed %d runs, want %d", n, want)
	}
	if n := executed(func() { Fig5(o) }); n != 0 {
		t.Fatalf("after Fig. 15, Fig. 5 executed %d runs, want 0", n)
	}
	o.CoreCounts = []int{16}
	// A baseline and 4 organizations per workload.
	if n, want := executed(func() { Fig13(o) }), uint64(len(o.Workloads)*5); n != want {
		t.Fatalf("Fig. 13 executed %d runs, want %d", n, want)
	}
	if n := executed(func() { Fig14(o) }); n != 0 {
		t.Fatalf("after Fig. 13, Fig. 14 executed %d runs, want 0", n)
	}
}

func TestFig15Decomposition(t *testing.T) {
	r := Fig15(testOptions())
	ns := r.Average("NOCSTAR")
	nsIdeal := r.Average("NOCSTAR(ideal)")
	ideal := r.Average("Ideal")
	if !(r.Average("Mono(mesh)") <= r.Average("Mono(SMART)")+0.02) {
		t.Fatal("SMART did not help the monolithic design")
	}
	if !(r.Average("Distributed") < ns && ns <= nsIdeal*1.005 && nsIdeal <= ideal*1.005) {
		t.Fatalf("decomposition ordering broken: dist=%.3f ns=%.3f nsIdeal=%.3f ideal=%.3f",
			r.Average("Distributed"), ns, nsIdeal, ideal)
	}
	// Headline claim: within 95% of the zero-latency ideal.
	if ns < 0.93*ideal {
		t.Fatalf("NOCSTAR %.3f below 95%% of ideal %.3f", ns, ideal)
	}
}

func TestFig16LeftOneWayWins(t *testing.T) {
	o := testOptions()
	o.Workloads = []string{"canneal", "gups"}
	o.CoreCounts = []int{16, 32}
	r := Fig16Left(o)
	for _, cores := range r.Cores {
		if r.Average(cores, "2xone-way") < r.Average(cores, "1xtwo-way")-0.005 {
			t.Fatalf("%d cores: one-way acquire lost: %.3f vs %.3f", cores,
				r.Average(cores, "2xone-way"), r.Average(cores, "1xtwo-way"))
		}
	}
}

func TestFig16RightLeadersHelp(t *testing.T) {
	o := testOptions()
	o.Workloads = []string{"canneal", "gups"}
	o.Instr = 40_000
	r := Fig16Right(o)
	for _, cores := range r.Cores {
		for _, v := range r.Variants {
			if avg := r.Average(cores, v); avg <= 0 {
				t.Fatalf("%d/%s: degenerate speedup %.3f", cores, v, avg)
			}
		}
	}
	// With leader batching the performance should be at least as good as
	// direct sends at the largest core count (the paper's motivation).
	best := r.Average(64, "per-8-core")
	direct := r.Average(64, "per-N-core")
	if best < direct-0.01 {
		t.Fatalf("leaders (%.3f) notably worse than direct sends (%.3f)", best, direct)
	}
}

func TestFig17RequestSlightlyBetter(t *testing.T) {
	o := testOptions()
	o.Workloads = []string{"canneal", "gups"}
	o.CoreCounts = []int{16, 32}
	r := Fig17(o)
	for _, cores := range r.Cores {
		req := r.Average(cores, "Request")
		rem := r.Average(cores, "Remote")
		if req < rem-0.02 {
			t.Fatalf("%d cores: request-core policy clearly worse: %.3f vs %.3f", cores, req, rem)
		}
	}
}

func TestTable3Shapes(t *testing.T) {
	o := testOptions()
	o.Workloads = []string{"canneal", "gups"}
	o.Instr = 40_000
	r := Table3(o)
	if len(r.Rows) != len(table3Scenarios)*3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// NOCSTAR beats distributed beats monolithic in the base scenario.
	base := "No/1/Variable"
	ns, _ := r.Row(base, "NOCSTAR")
	d, _ := r.Row(base, "Distributed")
	m, _ := r.Row(base, "Monolithic")
	if !(ns.Avg > d.Avg && d.Avg > m.Avg) {
		t.Fatalf("base scenario ordering broken: %v %v %v", m.Avg, d.Avg, ns.Avg)
	}
	// Higher fixed PTW latency favours shared TLBs monotonically.
	f10, _ := r.Row("No/1/Fixed-10", "NOCSTAR")
	f80, _ := r.Row("No/1/Fixed-80", "NOCSTAR")
	if f80.Avg <= f10.Avg {
		t.Fatalf("Fixed-80 (%.3f) not above Fixed-10 (%.3f)", f80.Avg, f10.Avg)
	}
	// Even at the unrealistically low Fixed-10, NOCSTAR still wins.
	if f10.Avg < 1.0 {
		t.Fatalf("NOCSTAR at Fixed-10 = %.3f, paper reports >1", f10.Avg)
	}
}

func TestFig18Shapes(t *testing.T) {
	o := testOptions()
	o.Instr = 25_000
	o.Combos = 6
	r := Fig18(o)
	if len(r.Combos) != 6 {
		t.Fatalf("combos = %d", len(r.Combos))
	}
	// NOCSTAR improves aggregate throughput for every combination and
	// degrades fewer combinations than monolithic.
	if frac := r.DegradedFraction("NOCSTAR", false); frac > 0.2 {
		t.Fatalf("NOCSTAR degraded %.0f%% of combos", 100*frac)
	}
	if r.DegradedFraction("Monolithic", true) < r.DegradedFraction("NOCSTAR", true) {
		t.Fatal("monolithic degraded fewer worst-apps than NOCSTAR")
	}
	sorted := r.SortedThroughput("NOCSTAR")
	for i := 1; i < len(sorted); i++ {
		if sorted[i] < sorted[i-1] {
			t.Fatal("sorted curve not sorted")
		}
	}
}

func TestFig19StormDegradesButNocstarLeads(t *testing.T) {
	o := testOptions()
	o.Workloads = []string{"canneal", "gups"}
	o.Instr = 40_000
	o.CoreCounts = []int{16, 32}
	r := Fig19(o)
	for _, cores := range []int{16, 32} {
		ns, ok := r.Cell(cores, "NSTAR")
		if !ok {
			t.Fatalf("missing NSTAR cell at %d cores", cores)
		}
		mon, _ := r.Cell(cores, "Mon")
		if ns.WithUB <= mon.WithUB {
			t.Fatalf("%d cores: NOCSTAR (%.3f) not above monolithic (%.3f) under storm",
				cores, ns.WithUB, mon.WithUB)
		}
	}
}

func TestSliceHammerNocstarBest(t *testing.T) {
	o := testOptions()
	o.Instr = 40_000
	r := SliceHammer(o)
	ns := r.Victim["NOCSTAR"]
	if ns <= r.Victim["Monolithic"] {
		t.Fatalf("NOCSTAR (%.3f) not above monolithic (%.3f) under hammering",
			ns, r.Victim["Monolithic"])
	}
}

func TestTable1Render(t *testing.T) {
	r := Table1()
	out := r.Render()
	for _, name := range []string{"Bus", "Mesh", "FBFly-wide", "FBFly-narrow", "SMART", "NOCSTAR"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table I missing %s", name)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 24 {
		t.Fatalf("registry has %d entries, want 24", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Description == "" || e.Run == nil {
			t.Fatalf("incomplete entry %s", e.ID)
		}
	}
	if _, err := Lookup("fig12"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup accepted unknown id")
	}
}

func TestChooseFourCount(t *testing.T) {
	if got := len(chooseFour(11)); got != 330 {
		t.Fatalf("C(11,4) = %d, want 330", got)
	}
	if got := len(chooseFour(4)); got != 1 {
		t.Fatalf("C(4,4) = %d", got)
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Instr == 0 || o.Seed == 0 {
		t.Fatal("degenerate defaults")
	}
	if len(o.suite()) != 11 {
		t.Fatal("default suite incomplete")
	}
	if len(o.focusSuite()) != 4 {
		t.Fatal("focus suite wrong")
	}
}

func TestAblationHPCShape(t *testing.T) {
	o := testOptions()
	o.Workloads = []string{"canneal"}
	o.Instr = 30_000
	r := AblationHPC(o)
	if len(r.HPC) != len(r.Speedup) {
		t.Fatal("ragged result")
	}
	// Tighter HPC bounds (more latch stages) must not help.
	if r.Speedup[0] > r.Speedup[len(r.Speedup)-1]+0.01 {
		t.Fatalf("HPC=2 (%.3f) beat unbounded (%.3f)", r.Speedup[0], r.Speedup[len(r.Speedup)-1])
	}
	for _, v := range r.Speedup {
		if v < 1.0 {
			t.Fatalf("NOCSTAR below private even pipelined: %v", r.Speedup)
		}
	}
}

func TestAblationSpeculation(t *testing.T) {
	o := testOptions()
	o.Workloads = []string{"canneal"}
	o.Instr = 30_000
	r := AblationSpeculation(o)
	// Speculative setup can only help (it removes a cycle of response
	// latency when uncontended).
	if r.Demand > r.Speculative+0.005 {
		t.Fatalf("demand setup (%.3f) beat speculative (%.3f)", r.Demand, r.Speculative)
	}
}
