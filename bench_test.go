package nocstar_test

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its artifact at a reduced (but shape-preserving)
// scale and reports the headline quantity as a custom metric, so
// `go test -bench=. -benchmem` doubles as a smoke reproduction of the
// whole evaluation. For publication-scale numbers use cmd/nocstar-exp
// with the default options (see EXPERIMENTS.md).
//
// Every run is memoized for the life of the process, so a figure
// benchmark executes only the runs its process has not already run:
// configurations an earlier benchmark shared, and every iteration after
// the first, are memo hits. Time a figure alone at -benchtime 1x.

import (
	"testing"

	"nocstar/internal/experiments"
	"nocstar/internal/runner"
)

// benchOptions is the reduced scale: three representative workloads and a
// short instruction budget.
func benchOptions() experiments.Options {
	return experiments.Options{
		Instr:     40_000,
		Seed:      1,
		Workloads: []string{"canneal", "olio", "gups"},
	}
}

// reportRefs reports simulation throughput as refs/sec: the memory
// references completed on the process-wide runner during the benchmark,
// over its measured wall time. Call it deferred at benchmark entry.
func reportRefs(b *testing.B) func() {
	b.ReportAllocs()
	start := runner.Default().Progress().MemRefs
	return func() {
		delta := runner.Default().Progress().MemRefs - start
		if sec := b.Elapsed().Seconds(); delta > 0 && sec > 0 {
			b.ReportMetric(float64(delta)/sec, "refs/sec")
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		if len(r.Points) != 6 {
			b.Fatal("design space incomplete")
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2(o)
		b.ReportMetric(r.Eliminated["canneal"][64], "%eliminated-canneal-64c")
	}
}

func BenchmarkFig3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3()
		b.ReportMetric(float64(r.Cycles[len(r.Cycles)-1]), "cycles-at-64x")
	}
}

func BenchmarkFig4(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(o)
		b.ReportMetric(r.Average("Shared(9-cc)")/r.Average("Shared(25-cc)"), "9cc-over-25cc")
	}
}

func BenchmarkFig5(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(o)
		f := r.Fractions["canneal"]
		b.ReportMetric(f[0]+f[1], "frac-low-concurrency")
	}
}

func BenchmarkFig6(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	o.Workloads = []string{"canneal"}
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6(o)
		f := r.Right["512slices"]
		b.ReportMetric(f[0], "frac-no-contention-512slices")
	}
}

func BenchmarkFig9(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9()
		_, both := r.Costs.InterconnectAreaFraction()
		b.ReportMetric(100*both, "%tile-area-overhead")
	}
}

func BenchmarkFig11a(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11a()
		last := len(r.Hops) - 1
		b.ReportMetric(float64(r.Latency["NOCSTAR-HPC16"][last]), "nocstar-cycles-12hops")
	}
}

func BenchmarkFig11b(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11b()
		last := len(r.Hops) - 1
		b.ReportMetric(r.Energy["M"][last].Total()/r.Energy["N"][last].Total(), "mono-over-nocstar-pJ")
	}
}

func BenchmarkFig11c(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11c(o)
		// Latency at 0.1 injection, the paper's "high for TLB traffic".
		b.ReportMetric(r.NocstarLat[2], "cycles-at-0.1-injection")
	}
}

func BenchmarkFig12(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(o)
		b.ReportMetric(r.Average("NOCSTAR"), "nocstar-speedup-16c-4K")
	}
}

func BenchmarkFig13(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13(o)
		b.ReportMetric(r.Average("NOCSTAR"), "nocstar-speedup-16c-THP")
	}
}

func BenchmarkFig14(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	o.Workloads = []string{"canneal", "gups"}
	for i := 0; i < b.N; i++ {
		r := experiments.Fig14(o)
		for _, row := range r.Rows {
			if row.Cores == 64 && row.Org == "NOCSTAR" {
				b.ReportMetric(row.Avg, "nocstar-speedup-64c")
				b.ReportMetric(row.EnergySaved, "%energy-saved-64c")
			}
		}
	}
}

func BenchmarkFig15(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig15(o)
		b.ReportMetric(r.Average("NOCSTAR")/r.Average("Ideal"), "nocstar-over-ideal")
	}
}

func BenchmarkFig16Left(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	o.Workloads = []string{"canneal", "gups"}
	o.CoreCounts = []int{16, 32}
	for i := 0; i < b.N; i++ {
		r := experiments.Fig16Left(o)
		b.ReportMetric(r.Average(32, "2xone-way")-r.Average(32, "1xtwo-way"), "oneway-minus-roundtrip")
	}
}

func BenchmarkFig16Right(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	o.Workloads = []string{"canneal", "gups"}
	o.CoreCounts = []int{32}
	for i := 0; i < b.N; i++ {
		r := experiments.Fig16Right(o)
		b.ReportMetric(r.Average(32, "per-8-core"), "per8core-speedup-32c")
	}
}

func BenchmarkFig17(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	o.Workloads = []string{"canneal", "gups"}
	o.CoreCounts = []int{16, 32}
	for i := 0; i < b.N; i++ {
		r := experiments.Fig17(o)
		b.ReportMetric(r.Average(32, "Request")-r.Average(32, "Remote"), "request-minus-remote")
	}
}

func BenchmarkTable3(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	o.Workloads = []string{"canneal", "gups"}
	o.Instr = 25_000
	for i := 0; i < b.N; i++ {
		r := experiments.Table3(o)
		if row, ok := r.Row("No/1/Fixed-80", "NOCSTAR"); ok {
			b.ReportMetric(row.Avg, "nocstar-fixed80-avg")
		}
	}
}

func BenchmarkFig18(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	o.Instr = 20_000
	o.Combos = 5
	for i := 0; i < b.N; i++ {
		r := experiments.Fig18(o)
		b.ReportMetric(r.DegradedFraction("NOCSTAR", true), "nocstar-degraded-frac")
	}
}

func BenchmarkFig19(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	o.Workloads = []string{"canneal", "gups"}
	o.Instr = 25_000
	o.CoreCounts = []int{16, 32}
	for i := 0; i < b.N; i++ {
		r := experiments.Fig19(o)
		if c, ok := r.Cell(32, "NSTAR"); ok {
			b.ReportMetric(c.WithUB, "nocstar-storm-speedup-32c")
		}
	}
}

func BenchmarkSliceHammer(b *testing.B) {
	o := benchOptions()
	defer reportRefs(b)()
	o.Instr = 25_000
	for i := 0; i < b.N; i++ {
		r := experiments.SliceHammer(o)
		b.ReportMetric(r.Victim["NOCSTAR"], "victim-speedup")
	}
}
