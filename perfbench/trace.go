package main

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// tracer keeps spans in memory and writes them out when the traced run
// ends. Spans wrap the calls the benchmark makes into each layer; a nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Spans of one operation share req; parent is
// the enclosing span's id (0 at top level).
type span struct {
	name       string
	id, parent uint64
	req        uint64
	lane       int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, parent, req uint64, lane int) (uint64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, req: req, lane: lane, start: start})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id-1].end = end
		t.mu.Unlock()
	}
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// events renders the spans as trace events of process pid.
func (t *tracer) events(pid int, workload string) []traceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		out = append(out, traceEvent{
			Name: s.name, Ph: "X", PID: pid, TID: s.lane,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"workload": workload, "id": s.id, "parent": s.parent, "req": s.req},
		})
	}
	return out
}

// meanMS is the mean duration in ms of the spans called name.
func (t *tracer) meanMS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			sum += s.end - s.start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum.Nanoseconds()) / 1e6 / float64(n)
}

// writeChromeTrace writes events as a Chrome trace_event document, which
// chrome://tracing and Perfetto open directly.
func writeChromeTrace(path string, events []traceEvent) error {
	doc, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}

// modules are the layers CPU time is attributed to, named after the
// repository's packages, plus the two buckets for samples with no
// repository frame.
var modules = []string{
	"engine", "workload", "tlb", "vm", "ptw", "cache", "noc", "system",
	"runner", "store", "server", "client", "stdlib_http_json", "go_runtime", "other",
}

// moduleOf maps a function name from a profile to its module: the
// package under nocstar/internal, the public client, or "other" for the
// remaining repository packages and the benchmark's own code. ok is false
// for functions outside the repository.
func moduleOf(fn string) (string, bool) {
	switch {
	case strings.HasPrefix(fn, "nocstar/internal/"):
		pkg := strings.TrimPrefix(fn, "nocstar/internal/")
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		for _, m := range modules {
			if m == pkg {
				return m, true
			}
		}
		return "other", true
	case strings.HasPrefix(fn, "nocstar/client."):
		return "client", true
	case strings.HasPrefix(fn, "nocstar.") || strings.HasPrefix(fn, "main."):
		return "other", true
	}
	return "", false
}

// stdlibServe reports whether a function belongs to the standard
// library's HTTP, network or JSON machinery.
func stdlibServe(fn string) bool {
	for _, p := range []string{"net/", "net.", "encoding/json.", "bufio.", "crypto/", "mime", "compress/", "io."} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// cpuProfile is the part of a pprof CPU profile the benchmark reads.
type cpuProfile struct {
	samples []cpuSample
}

// cpuSample is one stack with its CPU time; frames run leaf first and
// hold function names.
type cpuSample struct {
	frames  []string
	cpuNS   int64
	labeled bool // carries the runner's nocstar_config label
}

// selfSeconds attributes every sample to the module of its innermost
// repository frame, so runtime helpers called from tlb code count for
// tlb; samples with no repository frame go to the standard library's
// serving code or to the Go runtime.
func (p *cpuProfile) selfSeconds() map[string]float64 {
	out := make(map[string]float64, len(modules))
	for _, m := range modules {
		out[m] = 0
	}
	for _, s := range p.samples {
		mod := ""
		for _, fn := range s.frames {
			if m, ok := moduleOf(fn); ok {
				mod = m
				break
			}
		}
		if mod == "" {
			mod = "go_runtime"
			for _, fn := range s.frames {
				if stdlibServe(fn) {
					mod = "stdlib_http_json"
					break
				}
			}
		}
		out[mod] += float64(s.cpuNS) / 1e9
	}
	return out
}

// labeledSeconds is the CPU time of samples taken inside a runner
// execution.
func (p *cpuProfile) labeledSeconds() float64 {
	var ns int64
	for _, s := range p.samples {
		if s.labeled {
			ns += s.cpuNS
		}
	}
	return float64(ns) / 1e9
}

// parseCPUProfile decodes a gzipped pprof protobuf as runtime/pprof
// writes it. Only the fields the attribution needs are read: samples
// (locations, values, labels), locations (their inlined lines), functions
// and the string table.
func parseCPUProfile(r io.Reader) (*cpuProfile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels []uint64 // label key string indices
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
		strs      []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3: // Label
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							s.labels = append(s.labels, v)
						}
						return nil
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{cpuNS: s.values[1]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				cs.frames = append(cs.frames, str(funcNames[fid]))
			}
		}
		for _, k := range s.labels {
			if str(int64(k)) == "nocstar_config" {
				cs.labeled = true
			}
		}
		p.samples = append(p.samples, cs)
	}
	return p, nil
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number and either the varint value or the length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbVarint decodes one varint, returning it and its length (0 on error).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// appendPacked appends a repeated varint field that may arrive packed
// (data set) or as a single value.
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
