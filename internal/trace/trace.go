// Package trace records and replays virtual-address reference traces.
//
// The paper's evaluation runs on a trace/execution-driven simulator; this
// package is the trace side of that substrate: capture a workload's
// per-thread address streams into a compact binary file, inspect its
// TLB-relevant statistics, and replay it deterministically into the
// simulator in place of the live generators.
//
// Format (little-endian):
//
//	magic "NSTR" | version u16 | threads u16 | name len u8 | name bytes
//	per thread: refs u64, then refs varint-encoded zig-zag deltas of the
//	4 KiB page number (offsets are irrelevant to TLB studies), delta
//	measured against the previous reference of the same thread.
//
// A thread holds at most maxRefsPerThread references (2^26, 512 MiB of
// decoded page numbers); Write refuses larger traces and Read rejects a
// header that claims more.
//
// Delta encoding exploits the streams' temporal locality: repeated and
// nearby pages encode in one or two bytes.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"nocstar/internal/engine"
	"nocstar/internal/vm"
	"nocstar/internal/workload"
)

var magic = [4]byte{'N', 'S', 'T', 'R'}

// version of the on-disk format.
const version = 1

// maxRefsPerThread bounds one thread's reference count, so a corrupt or
// hostile header cannot ask Read for an unbounded allocation.
const maxRefsPerThread = 1 << 26

// readChunk caps the slice Read pre-sizes from a header count; beyond it
// the slice grows only as references actually decode, so memory tracks
// the input's real length rather than its claimed one.
const readChunk = 4096

// Trace is a fully loaded trace: one page-number sequence per thread.
type Trace struct {
	Name    string
	Threads [][]uint64 // 4 KiB page numbers per thread, in program order
}

// Refs returns the total reference count across threads.
func (t *Trace) Refs() uint64 {
	var n uint64
	for _, th := range t.Threads {
		n += uint64(len(th))
	}
	return n
}

// Capture drives a workload's generators for refsPerThread references
// each and returns the resulting trace.
func Capture(spec workload.Spec, threads int, refsPerThread uint64, seed int64) *Trace {
	t := &Trace{Name: spec.Name, Threads: make([][]uint64, threads)}
	root := engine.NewRand(seed)
	for i := 0; i < threads; i++ {
		gen := workload.NewGenerator(spec, threads, i, root.Split())
		refs := make([]uint64, refsPerThread)
		for j := range refs {
			refs[j] = uint64(gen.Next()) >> 12
		}
		t.Threads[i] = refs
	}
	return t
}

// Write serializes the trace.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if len(t.Name) > 255 {
		return fmt.Errorf("trace: name %q too long", t.Name)
	}
	for i, refs := range t.Threads {
		if len(refs) > maxRefsPerThread {
			return fmt.Errorf("trace: thread %d has %d refs, limit %d", i, len(refs), maxRefsPerThread)
		}
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint16(hdr[0:2], version)
	binary.LittleEndian.PutUint16(hdr[2:4], uint16(len(t.Threads)))
	hdr[4] = byte(len(t.Name))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	for _, refs := range t.Threads {
		var cnt [8]byte
		binary.LittleEndian.PutUint64(cnt[:], uint64(len(refs)))
		if _, err := bw.Write(cnt[:]); err != nil {
			return err
		}
		prev := uint64(0)
		for _, page := range refs {
			delta := int64(page) - int64(prev)
			n := binary.PutVarint(buf[:], delta)
			if _, err := bw.Write(buf[:n]); err != nil {
				return err
			}
			prev = page
		}
	}
	return bw.Flush()
}

// Read deserializes a trace. A truncated input, or one whose header
// claims more than maxRefsPerThread references for a thread, is an
// error.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:2]); v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	threads := int(binary.LittleEndian.Uint16(hdr[2:4]))
	name := make([]byte, hdr[4])
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	t := &Trace{Name: string(name), Threads: make([][]uint64, threads)}
	for i := 0; i < threads; i++ {
		var cnt [8]byte
		if _, err := io.ReadFull(br, cnt[:]); err != nil {
			return nil, fmt.Errorf("trace: thread %d count: %w", i, err)
		}
		n := binary.LittleEndian.Uint64(cnt[:])
		if n > maxRefsPerThread {
			return nil, fmt.Errorf("trace: thread %d claims %d refs, limit %d", i, n, maxRefsPerThread)
		}
		refs := make([]uint64, 0, min(n, readChunk))
		prev := uint64(0)
		for j := uint64(0); j < n; j++ {
			delta, err := binary.ReadVarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: thread %d ref %d: %w", i, j, err)
			}
			page := uint64(int64(prev) + delta)
			refs = append(refs, page)
			prev = page
		}
		t.Threads[i] = refs
	}
	return t, nil
}

// Replayer replays one thread's captured stream. When the trace is
// exhausted it wraps around, so a replayed run can be longer than the
// capture.
type Replayer struct {
	refs []uint64
	pos  int
}

// NewReplayer returns a Stream over the given thread of the trace. It
// panics for an out-of-range thread (a caller bug) and returns an error
// for an empty stream.
func (t *Trace) NewReplayer(thread int) (*Replayer, error) {
	if thread < 0 || thread >= len(t.Threads) {
		panic(fmt.Sprintf("trace: thread %d out of range", thread))
	}
	if len(t.Threads[thread]) == 0 {
		return nil, fmt.Errorf("trace: thread %d is empty", thread)
	}
	return &Replayer{refs: t.Threads[thread]}, nil
}

// Next implements workload.Stream.
func (r *Replayer) Next() vm.VirtAddr {
	page := r.refs[r.pos]
	r.pos++
	if r.pos == len(r.refs) {
		r.pos = 0
	}
	return vm.VirtAddr(page << 12)
}

// Wrapped reports how far the replayer has advanced (for tests).
func (r *Replayer) Position() int { return r.pos }

var _ workload.Stream = (*Replayer)(nil)

// Stats summarizes a trace's TLB-relevant properties.
type Stats struct {
	Name          string
	Threads       int
	Refs          uint64
	DistinctPages uint64
	Distinct2M    uint64
	// SharedPages counts distinct pages touched by more than one thread.
	SharedPages uint64
	// ReuseRate is the fraction of references to a page already touched
	// by the same thread.
	ReuseRate float64
}

// Analyze computes trace statistics.
func Analyze(t *Trace) Stats {
	s := Stats{Name: t.Name, Threads: len(t.Threads), Refs: t.Refs()}
	owners := map[uint64]int{} // page -> first thread+1, or -1 if shared
	extents := map[uint64]struct{}{}
	var reuses uint64
	for ti, refs := range t.Threads {
		seen := map[uint64]struct{}{}
		for _, p := range refs {
			if _, ok := seen[p]; ok {
				reuses++
			}
			seen[p] = struct{}{}
			extents[p>>9] = struct{}{}
			switch prev, ok := owners[p]; {
			case !ok:
				owners[p] = ti + 1
			case prev != ti+1 && prev != -1:
				owners[p] = -1
			}
		}
	}
	s.DistinctPages = uint64(len(owners))
	s.Distinct2M = uint64(len(extents))
	for _, o := range owners {
		if o == -1 {
			s.SharedPages++
		}
	}
	if s.Refs > 0 {
		s.ReuseRate = float64(reuses) / float64(s.Refs)
	}
	return s
}
