package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConcurrencyBucketsCoverAll(t *testing.T) {
	// Every positive count must land in exactly one bucket.
	for n := 1; n <= 100; n++ {
		hits := 0
		for _, b := range ConcurrencyBuckets {
			if n >= b.Lo && (b.Hi < 0 || n <= b.Hi) {
				hits++
			}
		}
		if hits != 1 {
			t.Fatalf("count %d lands in %d buckets", n, hits)
		}
	}
}

func TestConcurrencyHistFractions(t *testing.T) {
	var h ConcurrencyHist
	for i := 0; i < 60; i++ {
		h.Observe(1)
	}
	for i := 0; i < 30; i++ {
		h.Observe(3)
	}
	for i := 0; i < 10; i++ {
		h.Observe(40)
	}
	f := h.Fractions()
	if math.Abs(f[0]-0.6) > 1e-9 || math.Abs(f[1]-0.3) > 1e-9 || math.Abs(f[8]-0.1) > 1e-9 {
		t.Fatalf("fractions = %v", f)
	}
	if h.Total != 100 {
		t.Fatalf("total = %d", h.Total)
	}
}

func TestConcurrencyHistClampsBelowOne(t *testing.T) {
	var h ConcurrencyHist
	h.Observe(0)
	h.Observe(-5)
	if f := h.Fractions(); f[0] != 1 {
		t.Fatalf("fractions = %v, want all mass in bucket 0", f)
	}
}

func TestConcurrencyHistMerge(t *testing.T) {
	var a, b ConcurrencyHist
	a.Observe(1)
	b.Observe(2)
	b.Observe(6)
	a.Merge(&b)
	if a.Total != 3 {
		t.Fatalf("merged total = %d", a.Total)
	}
	f := a.Fractions()
	if math.Abs(f[0]-1.0/3) > 1e-9 || math.Abs(f[1]-1.0/3) > 1e-9 || math.Abs(f[2]-1.0/3) > 1e-9 {
		t.Fatalf("merged fractions = %v", f)
	}
}

func TestConcurrencyFractionsSumToOne(t *testing.T) {
	f := func(samples []uint8) bool {
		var h ConcurrencyHist
		for _, s := range samples {
			h.Observe(int(s))
		}
		if len(samples) == 0 {
			return true
		}
		sum := 0.0
		for _, v := range h.Fractions() {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileSorted(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := PercentileSorted(s, 50); got != 2.5 {
		t.Fatalf("P50 = %v, want 2.5", got)
	}
	if PercentileSorted(s, 0) != 1 || PercentileSorted(s, 100) != 4 {
		t.Fatal("extremes wrong")
	}
}

func TestTableRendersNaNAsDash(t *testing.T) {
	tb := NewTable("")
	tb.Row("h1", "h2")
	tb.Row(math.NaN(), 1.5)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	fields := strings.Fields(lines[len(lines)-1])
	if len(fields) != 2 || fields[0] != "-" || fields[1] != "1.500" {
		t.Fatalf("NaN cell not rendered as -: %q\n%s", fields, out)
	}
}

func TestMean64AndMinMax(t *testing.T) {
	vs := []float64{3, 1, 2}
	if Mean64(vs) != 2 {
		t.Fatalf("Mean64 = %v", Mean64(vs))
	}
	lo, hi := MinMax(vs)
	if lo != 1 || hi != 3 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	if Mean64(nil) != 0 {
		t.Fatal("Mean64(nil) != 0")
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{10, 20, 30, 40, 50}
	if p := PercentileSorted(vs, 0); p != 10 {
		t.Fatalf("p0 = %v", p)
	}
	if p := PercentileSorted(vs, 100); p != 50 {
		t.Fatalf("p100 = %v", p)
	}
	if p := PercentileSorted(vs, 50); p != 30 {
		t.Fatalf("p50 = %v", p)
	}
	if p := PercentileSorted(vs, 25); p != 20 {
		t.Fatalf("p25 = %v", p)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo")
	tb.Row("workload", "speedup")
	tb.Row("gups", 1.25)
	tb.Row("canneal", 1.125)
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "1.250") || !strings.Contains(out, "canneal") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + header + rule + 2 rows
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableEmpty(t *testing.T) {
	if !strings.Contains(NewTable("x").String(), "(empty)") {
		t.Fatal("empty table should say so")
	}
}

func TestMinMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MinMax(nil) did not panic")
		}
	}()
	MinMax(nil)
}
