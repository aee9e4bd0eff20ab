package experiments

import (
	"fmt"
	"strings"

	"nocstar/internal/runner"
	"nocstar/internal/stats"
	"nocstar/internal/system"
)

// ---------------------------------------------------------------------
// Fig. 2 — percentage of private L2 TLB misses eliminated by replacing
// private L2 TLBs with a shared TLB, for 16/32/64-core systems.

// Fig2Result holds per-workload, per-core-count elimination percentages.
type Fig2Result struct {
	Cores      []int
	Workloads  []string
	Eliminated map[string]map[int]float64 // workload -> cores -> percent
}

// Fig2 reproduces Fig. 2 using the zero-interconnect shared organization
// (elimination is a hit-rate property, independent of the interconnect).
func Fig2(o Options) Fig2Result {
	res := Fig2Result{
		Cores:      []int{16, 32, 64},
		Eliminated: map[string]map[int]float64{},
	}
	type cell struct {
		name            string
		cores           int
		baseline, share *runner.Future
	}
	var cells []cell
	for _, spec := range o.suite() {
		res.Workloads = append(res.Workloads, spec.Name)
		res.Eliminated[spec.Name] = map[int]float64{}
		for _, cores := range res.Cores {
			cells = append(cells, cell{spec.Name, cores,
				o.baselineFuture(spec, cores, false),
				o.submit(o.baseConfig(system.IdealShared, spec, cores, false))})
		}
	}
	for _, c := range cells {
		res.Eliminated[c.name][c.cores] = 100 * c.share.Wait().MissesEliminatedVs(c.baseline.Wait())
	}
	return res
}

// Render prints the Fig. 2 rows.
func (r Fig2Result) Render() string {
	t := stats.NewTable("Fig. 2: percent of private L2 TLB misses eliminated by a shared TLB")
	t.Row("workload", "16-core", "32-core", "64-core")
	avgs := make([]float64, len(r.Cores))
	for _, w := range r.Workloads {
		row := []interface{}{w}
		for i, c := range r.Cores {
			v := r.Eliminated[w][c]
			avgs[i] += v
			row = append(row, fmt.Sprintf("%.1f", v))
		}
		t.Row(row...)
	}
	row := []interface{}{"average"}
	for i := range avgs {
		row = append(row, fmt.Sprintf("%.1f", avgs[i]/float64(len(r.Workloads))))
	}
	t.Row(row...)
	return t.String()
}

// ---------------------------------------------------------------------
// Fig. 5 — fraction of shared L2 TLB accesses concurrent with 1 other
// access, 2-4 others, etc., on a 32-core system.

// Fig5Result holds per-workload concurrency histograms.
type Fig5Result struct {
	Workloads []string
	Buckets   []string
	Fractions map[string][]float64
}

// Fig5 reproduces Fig. 5's concurrency histogram on the NOCSTAR
// organization (system.Nocstar) at 32 cores, so its runs are the same
// configurations as Fig. 15's NOCSTAR column.
func Fig5(o Options) Fig5Result {
	res := Fig5Result{Fractions: map[string][]float64{}}
	for _, b := range stats.ConcurrencyBuckets {
		res.Buckets = append(res.Buckets, b.Label)
	}
	var futs []*runner.Future
	for _, spec := range o.suite() {
		res.Workloads = append(res.Workloads, spec.Name)
		futs = append(futs, o.submit(o.baseConfig(system.Nocstar, spec, 32, false)))
	}
	for i, name := range res.Workloads {
		r := futs[i].Wait()
		res.Fractions[name] = r.Conc.Fractions()
	}
	return res
}

// Render prints the histogram rows.
func (r Fig5Result) Render() string {
	t := stats.NewTable("Fig. 5: concurrency of shared L2 TLB accesses (32 cores)")
	header := append([]interface{}{"workload"}, toIfaces(r.Buckets)...)
	t.Row(header...)
	for _, w := range r.Workloads {
		row := []interface{}{w}
		for _, f := range r.Fractions[w] {
			row = append(row, fmt.Sprintf("%.2f", f))
		}
		t.Row(row...)
	}
	return t.String()
}

// ---------------------------------------------------------------------
// Fig. 6 — concurrency vs L1 TLB size and core count (left), and
// per-slice concurrency vs slice count (right).

// Fig6Result holds the two panels.
type Fig6Result struct {
	Buckets []string
	// Left: label -> global concurrency fractions.
	LeftLabels []string
	Left       map[string][]float64
	// Right: slice count -> per-slice concurrency fractions.
	RightLabels []string
	Right       map[string][]float64
}

// Fig6 reproduces both panels, averaging across the (possibly filtered)
// suite as the paper does.
func Fig6(o Options) Fig6Result {
	res := Fig6Result{Left: map[string][]float64{}, Right: map[string][]float64{}}
	for _, b := range stats.ConcurrencyBuckets {
		res.Buckets = append(res.Buckets, b.Label)
	}

	submitConc := func(cores int, l1Scale float64) []*runner.Future {
		var futs []*runner.Future
		for _, spec := range o.suite() {
			cfg := o.baseConfig(system.Nocstar, spec, cores, false)
			cfg.L1Scale = l1Scale
			if cores > 32 {
				// Keep total simulated work constant across core counts.
				cfg.InstrPerThread = o.Instr * 32 / uint64(cores)
			}
			futs = append(futs, o.submit(cfg))
		}
		return futs
	}
	joinConc := func(futs []*runner.Future, perSlice bool) []float64 {
		var agg stats.ConcurrencyHist
		for _, f := range futs {
			r := f.Wait()
			if perSlice {
				agg.Merge(&r.SliceConc)
			} else {
				agg.Merge(&r.Conc)
			}
		}
		return agg.Fractions()
	}

	left := []struct {
		label string
		cores int
		scale float64
	}{
		{"baseline", 32, 1},
		{"0.5xL1", 32, 0.5},
		{"1.5xL1", 32, 1.5},
		{"64cores", 64, 1},
		{"128cores", 128, 1},
		{"256cores", 256, 1},
		{"512cores", 512, 1},
	}
	// Submit both panels' runs before joining any of them.
	leftFuts := make([][]*runner.Future, len(left))
	for i, c := range left {
		leftFuts[i] = submitConc(c.cores, c.scale)
	}
	sliceCounts := []int{32, 64, 128, 256, 512}
	rightFuts := make([][]*runner.Future, len(sliceCounts))
	for i, slices := range sliceCounts {
		rightFuts[i] = submitConc(slices, 1)
	}
	for i, c := range left {
		res.LeftLabels = append(res.LeftLabels, c.label)
		res.Left[c.label] = joinConc(leftFuts[i], false)
	}
	for i, slices := range sliceCounts {
		label := fmt.Sprintf("%dslices", slices)
		res.RightLabels = append(res.RightLabels, label)
		res.Right[label] = joinConc(rightFuts[i], true)
	}
	return res
}

// Render prints both panels.
func (r Fig6Result) Render() string {
	var b strings.Builder
	t := stats.NewTable("Fig. 6 (left): shared L2 TLB concurrency vs L1 size and core count")
	t.Row(append([]interface{}{"config"}, toIfaces(r.Buckets)...)...)
	for _, l := range r.LeftLabels {
		row := []interface{}{l}
		for _, f := range r.Left[l] {
			row = append(row, fmt.Sprintf("%.2f", f))
		}
		t.Row(row...)
	}
	b.WriteString(t.String())
	b.WriteByte('\n')
	t2 := stats.NewTable("Fig. 6 (right): per-slice concurrency vs slice count")
	t2.Row(append([]interface{}{"config"}, toIfaces(r.Buckets)...)...)
	for _, l := range r.RightLabels {
		row := []interface{}{l}
		for _, f := range r.Right[l] {
			row = append(row, fmt.Sprintf("%.2f", f))
		}
		t2.Row(row...)
	}
	b.WriteString(t2.String())
	return b.String()
}

// toIfaces converts strings for table rows.
func toIfaces(ss []string) []interface{} {
	out := make([]interface{}, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}
