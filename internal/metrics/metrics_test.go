package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d, want 5", c.Value())
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Hist("x", nil)
}

func TestHistBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Hist("h", []uint64{1, 4, 16})
	for _, v := range []uint64{0, 1, 2, 4, 5, 16, 17, 1000} {
		h.Observe(v)
	}
	hv, ok := r.Snapshot().Hist("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	want := []uint64{2, 2, 2, 2} // <=1: {0,1}; <=4: {2,4}; <=16: {5,16}; over: {17,1000}
	if !reflect.DeepEqual(hv.Counts, want) {
		t.Fatalf("counts = %v, want %v", hv.Counts, want)
	}
	if hv.Count != 8 || hv.Sum != 1045 || hv.Min != 0 || hv.Max != 1000 {
		t.Fatalf("summary = %+v", hv)
	}
}

func TestHistDefaultBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Hist("h", nil)
	h.Observe(3)
	hv, _ := r.Snapshot().Hist("h")
	if len(hv.Bounds) != len(DefaultLatencyBounds) || len(hv.Counts) != len(hv.Bounds)+1 {
		t.Fatalf("bounds/counts = %d/%d", len(hv.Bounds), len(hv.Counts))
	}
}

func TestSnapshotSortedAndMarshalable(t *testing.T) {
	r := NewRegistry()
	r.Counter("z")
	r.Counter("a")
	r.Hist("m", nil).Observe(7)
	s := r.Snapshot()
	if s.Counters[0].Name != "a" || s.Counters[1].Name != "z" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	if v, ok := s.Counter("z"); !ok || v != 0 {
		t.Fatalf("Counter lookup = %d,%v", v, ok)
	}
}

// TestHotPathAllocFree pins the package's core contract: registered
// metrics and a warm tracer never allocate on observation.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Hist("h", nil)
	tr := NewTracer(64)
	avg := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		h.Observe(42)
		tr.Emit(TraceL2Hit, 10, 4, 1, 2)
	})
	if avg != 0 {
		t.Fatalf("hot-path observation allocates: %.1f allocs/op, want 0", avg)
	}
}

func TestTracerBoundedWindow(t *testing.T) {
	tr := NewTracer(2)
	tr.Emit(TraceL2Hit, 1, 0, 0, 0)
	tr.Emit(TraceL2Miss, 2, 0, 0, 0)
	tr.Emit(TraceWalk, 3, 5, 0, 0)
	if tr.Len() != 2 || tr.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", tr.Len(), tr.Dropped())
	}
}

func TestWriteChrome(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(TraceWalk, 10, 30, 2, 5)    // span
	tr.Emit(TracePathGrant, 4, 0, 1, 3) // instant, out of order
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(doc.TraceEvents))
	}
	// Sorted by start cycle: the grant (ts 4) precedes the walk (ts 10).
	if doc.TraceEvents[0]["name"] != "path-grant" || doc.TraceEvents[0]["ph"] != "i" {
		t.Fatalf("first event = %v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[1]["name"] != "walk" || doc.TraceEvents[1]["ph"] != "X" ||
		doc.TraceEvents[1]["dur"] != float64(30) {
		t.Fatalf("second event = %v", doc.TraceEvents[1])
	}
}
