// Package stats provides the measurement plumbing shared by every
// experiment: counters, the concurrency histograms used by the paper's
// Fig. 5 and Fig. 6, distribution summaries, and fixed-width ASCII table
// rendering for regenerated tables and figures.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// ConcurrencyBuckets are the x-axis buckets of the paper's Fig. 5/6:
// an access observed alone, concurrent with 2-4 others, 5-8, and so on.
// The final bucket is open-ended ("29+ accesses").
var ConcurrencyBuckets = []struct {
	Lo, Hi int // inclusive; Hi < 0 means unbounded
	Label  string
}{
	{1, 1, "1 acc"},
	{2, 4, "2-4 acc"},
	{5, 8, "5-8 acc"},
	{9, 12, "9-12 acc"},
	{13, 16, "13-16 acc"},
	{17, 20, "17-20 acc"},
	{21, 24, "21-24 acc"},
	{25, 28, "25-28 acc"},
	{29, -1, "29+ acc"},
}

// ConcurrencyHist counts, for every observed access, how many accesses
// (including itself) were outstanding at the instant it began. Its
// fields are exported so a Result carrying it round-trips through JSON.
type ConcurrencyHist struct {
	// Counts holds the observations per bucket, in ConcurrencyBuckets
	// order.
	Counts [9]uint64
	// Total is the number of observations.
	Total uint64
}

// Observe records an access that began while n accesses (including itself,
// so n >= 1) were outstanding.
func (h *ConcurrencyHist) Observe(n int) {
	if n < 1 {
		n = 1
	}
	for i, b := range ConcurrencyBuckets {
		if n >= b.Lo && (b.Hi < 0 || n <= b.Hi) {
			h.Counts[i]++
			h.Total++
			return
		}
	}
}

// Fractions returns the per-bucket fraction of observations, in
// ConcurrencyBuckets order. All zeros when nothing was observed.
func (h *ConcurrencyHist) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	if h.Total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.Total)
	}
	return out
}

// Merge adds the observations of other into h.
func (h *ConcurrencyHist) Merge(other *ConcurrencyHist) {
	for i := range h.Counts {
		h.Counts[i] += other.Counts[i]
	}
	h.Total += other.Total
}

// Mean64 returns the arithmetic mean of vs, or 0 for empty input.
func Mean64(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// MinMax returns the smallest and largest of vs. It panics on empty input.
func MinMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// PercentileSorted returns the p-th percentile (0..100) of an
// already-ascending slice using linear interpolation, without copying or
// re-sorting. It panics on empty input.
func PercentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		panic("stats: PercentileSorted of empty slice")
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Table renders aligned rows for experiment output. The first added row is
// treated as the header.
type Table struct {
	title string
	rows  [][]string
}

// NewTable returns a table with the given title.
func NewTable(title string) *Table {
	return &Table{title: title}
}

// Row appends a row of cells. Non-string cells are formatted with %v;
// float64 cells with %.3f, except NaN — the "no samples" sentinel — which
// renders as "-" rather than a value a reader could mistake for a
// measurement.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			if math.IsNaN(v) {
				row[i] = "-"
			} else {
				row[i] = fmt.Sprintf("%.3f", v)
			}
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with columns padded to their widest cell.
func (t *Table) String() string {
	if len(t.rows) == 0 {
		return t.title + "\n(empty)\n"
	}
	ncol := 0
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	for ri, r := range t.rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(r)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
		if ri == 0 {
			total := 0
			for _, w := range widths {
				total += w + 2
			}
			b.WriteString(strings.Repeat("-", total))
			b.WriteByte('\n')
		}
	}
	return b.String()
}
