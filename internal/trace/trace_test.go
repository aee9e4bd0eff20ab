package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"nocstar/internal/vm"
	"nocstar/internal/workload"
)

func capture(t *testing.T) *Trace {
	t.Helper()
	spec, ok := workload.ByName("canneal")
	if !ok {
		t.Fatal("missing workload")
	}
	return Capture(spec, 4, 5000, 42)
}

func TestCaptureShape(t *testing.T) {
	tr := capture(t)
	if len(tr.Threads) != 4 {
		t.Fatalf("threads = %d", len(tr.Threads))
	}
	if tr.Refs() != 4*5000 {
		t.Fatalf("refs = %d", tr.Refs())
	}
	if tr.Name != "canneal" {
		t.Fatalf("name = %q", tr.Name)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := capture(t)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || len(got.Threads) != len(tr.Threads) {
		t.Fatalf("header mismatch: %q %d", got.Name, len(got.Threads))
	}
	for i := range tr.Threads {
		if len(got.Threads[i]) != len(tr.Threads[i]) {
			t.Fatalf("thread %d length mismatch", i)
		}
		for j := range tr.Threads[i] {
			if got.Threads[i][j] != tr.Threads[i][j] {
				t.Fatalf("thread %d ref %d: %d != %d", i, j, got.Threads[i][j], tr.Threads[i][j])
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(pagesRaw [][]uint32, nameRaw uint8) bool {
		tr := &Trace{Name: string(rune('a' + nameRaw%26))}
		for _, th := range pagesRaw {
			refs := make([]uint64, len(th))
			for i, p := range th {
				refs[i] = uint64(p)
			}
			tr.Threads = append(tr.Threads, refs)
		}
		if len(tr.Threads) == 0 || len(tr.Threads) > 65535 {
			return true
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Refs() != tr.Refs() {
			return false
		}
		for i := range tr.Threads {
			for j := range tr.Threads[i] {
				if got.Threads[i][j] != tr.Threads[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaEncodingCompact(t *testing.T) {
	// Temporal locality means most deltas fit in 1-2 bytes: the encoded
	// size must be far below 8 bytes per reference.
	tr := capture(t)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	bytesPerRef := float64(buf.Len()) / float64(tr.Refs())
	if bytesPerRef > 5 {
		t.Fatalf("%.2f bytes/ref, delta encoding ineffective", bytesPerRef)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("XXXXGARBAGE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated after a valid header.
	tr := capture(t)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated trace accepted")
	}
	// A header claiming 2^62 references is rejected before any
	// allocation; one within the limit but past the end of the input is
	// a truncation.
	if _, err := Read(bytes.NewReader(oneThreadHeader(1 << 62))); err == nil {
		t.Fatal("2^62-ref thread accepted")
	}
	if _, err := Read(bytes.NewReader(append(oneThreadHeader(maxRefsPerThread), 2, 2))); err == nil {
		t.Fatal("truncated thread accepted")
	}
}

// TestReadRejectsPageOverLimit: a page no TLB key can hold is rejected
// by Read, naming the thread and reference, rather than panicking a
// replay later; the last page below the limit is accepted.
func TestReadRejectsPageOverLimit(t *testing.T) {
	for _, page := range []uint64{vm.VPNLimit, 1 << 50} {
		_, err := Read(bytes.NewReader(hostilePage(page)))
		if err == nil || !strings.Contains(err.Error(), "thread 0 ref 1") {
			t.Fatalf("page %#x: got %v, want an error naming thread 0 ref 1", page, err)
		}
	}
	tr, err := Read(bytes.NewReader(hostilePage(vm.VPNLimit - 1)))
	if err != nil || tr.Threads[0][1] != vm.VPNLimit-1 {
		t.Fatalf("last page below the limit: %v", err)
	}
}

// hostilePage is a one-thread trace of two references, page 1 then the
// given page.
func hostilePage(page uint64) []byte {
	var buf bytes.Buffer
	if err := Write(&buf, &Trace{Name: "x", Threads: [][]uint64{{1, page}}}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// oneThreadHeader is an 18-byte input: magic, version 1, one thread, a
// 1-byte name, then that thread's reference count and no references.
func oneThreadHeader(count uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte("NSTR\x01\x00\x01\x00\x01x"), count)
}

// FuzzTraceRead: Read never panics, every page it accepts is below
// vm.VPNLimit, and any input it accepts re-encodes to a trace that reads
// back identically.
func FuzzTraceRead(f *testing.F) {
	spec, _ := workload.ByName("canneal")
	var valid bytes.Buffer
	if err := Write(&valid, Capture(spec, 2, 50, 7)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(oneThreadHeader(1 << 62))
	f.Add(hostilePage(1 << 50))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		for i, refs := range tr.Threads {
			for j, page := range refs {
				if page >= vm.VPNLimit {
					t.Fatalf("thread %d ref %d: accepted page %#x at or above the VPN limit", i, j, page)
				}
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace unreadable: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatal("round trip changed the trace")
		}
	})
}

func TestReplayerMatchesAndWraps(t *testing.T) {
	tr := capture(t)
	r, err := tr.NewReplayer(2)
	if err != nil {
		t.Fatal(err)
	}
	// Batches of 7 straddle the end of the stream, so one batch holds
	// both its last references and, after the wrap-around, its first.
	refs := tr.Threads[2]
	if len(refs)%7 == 0 {
		t.Fatalf("%d refs: no batch straddles the wrap", len(refs))
	}
	buf := make([]vm.VirtAddr, 7)
	for i := 0; i < len(refs)+2*len(buf); i += len(buf) {
		r.NextBatch(buf)
		for j, got := range buf {
			if want := refs[(i+j)%len(refs)] << 12; uint64(got) != want {
				t.Fatalf("ref %d: %#x != %#x", i+j, uint64(got), want)
			}
		}
	}
}

func TestReplayerErrors(t *testing.T) {
	tr := &Trace{Threads: [][]uint64{{}}}
	if _, err := tr.NewReplayer(0); err == nil {
		t.Fatal("empty stream accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range thread did not panic")
		}
	}()
	tr.NewReplayer(5)
}

func TestAnalyze(t *testing.T) {
	tr := &Trace{
		Name: "x",
		Threads: [][]uint64{
			{10, 10, 11, 700},
			{10, 900},
		},
	}
	s := Analyze(tr)
	if s.Refs != 6 || s.Threads != 2 {
		t.Fatalf("refs=%d threads=%d", s.Refs, s.Threads)
	}
	if s.DistinctPages != 4 {
		t.Fatalf("distinct = %d, want 4", s.DistinctPages)
	}
	if s.SharedPages != 1 { // page 10 touched by both threads
		t.Fatalf("shared = %d, want 1", s.SharedPages)
	}
	// Pages 10, 11 share extent 0; 700 is extent 1; 900 is extent 1 too
	// (700>>9 = 1, 900>>9 = 1).
	if s.Distinct2M != 2 {
		t.Fatalf("extents = %d, want 2", s.Distinct2M)
	}
	if s.ReuseRate != 1.0/6 { // one repeat of page 10 within thread 0
		t.Fatalf("reuse = %v", s.ReuseRate)
	}
}

func TestAnalyzeCapturedSharing(t *testing.T) {
	// canneal is 95% shared: most multi-thread-touched pages must exist.
	s := Analyze(capture(t))
	if s.SharedPages == 0 {
		t.Fatal("no shared pages in a 95 percent shared workload")
	}
	if s.ReuseRate < 0.5 {
		t.Fatalf("reuse rate %.2f too low for RepeatProb 0.88", s.ReuseRate)
	}
}

func TestCaptureDeterministic(t *testing.T) {
	a, b := capture(t), capture(t)
	for i := range a.Threads {
		for j := range a.Threads[i] {
			if a.Threads[i][j] != b.Threads[i][j] {
				t.Fatal("capture not deterministic")
			}
		}
	}
}
