package metrics

import (
	"strings"
	"testing"
)

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("l2.hits").Add(42)
	r.AtomicCounter("server.runs.submitted").Add(3)
	h := r.Hist("lat", []uint64{1, 4, 16})
	h.Observe(1)  // le=1
	h.Observe(3)  // le=4
	h.Observe(5)  // le=16
	h.Observe(99) // overflow

	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b, "nocstar"); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		// Names are sanitized (dots become underscores) and prefixed.
		"# TYPE nocstar_l2_hits counter\nnocstar_l2_hits 42\n",
		// AtomicCounters share the counter family.
		"nocstar_server_runs_submitted 3\n",
		// Histogram buckets are cumulative, closed by +Inf.
		"nocstar_lat_bucket{le=\"1\"} 1\n",
		"nocstar_lat_bucket{le=\"4\"} 2\n",
		"nocstar_lat_bucket{le=\"16\"} 3\n",
		"nocstar_lat_bucket{le=\"+Inf\"} 4\n",
		"nocstar_lat_sum 108\n",
		"nocstar_lat_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Determinism: a second encode of an equal snapshot is identical.
	var b3 strings.Builder
	r.Snapshot().WriteProm(&b3, "nocstar")
	if b3.String() != out {
		t.Error("WriteProm is not deterministic for equal snapshots")
	}
}
