// Package metrics is the simulator's observability layer: named, typed
// metrics (counters, online means, fixed-bucket latency histograms)
// collected in a per-System registry and snapshotted into a stable,
// JSON-marshalable form for machine-readable run reports.
//
// The design contract is a zero-allocation steady state: all metrics are
// registered up front (at System construction), and every hot-path
// operation — Counter.Inc/Add, Mean.Observe, Hist.Observe, Tracer.Emit —
// writes into preallocated storage and never touches the heap. The
// allocation-regression suite (make alloc) pins the full translation
// critical path at exactly zero allocs/op with the registry attached.
package metrics

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	name string
	v    uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v }

// Name reports the registered name.
func (c *Counter) Name() string { return c.name }

// AtomicCounter is a monotonically increasing event count safe for
// concurrent increment — the service layer's counterpart of Counter,
// whose single-writer unsynchronized increment is reserved for the
// simulator's hot path.
type AtomicCounter struct {
	name string
	v    atomic.Uint64
}

// Inc adds one.
func (c *AtomicCounter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *AtomicCounter) Add(n uint64) { c.v.Add(n) }

// Value reports the current count.
func (c *AtomicCounter) Value() uint64 { return c.v.Load() }

// Name reports the registered name.
func (c *AtomicCounter) Name() string { return c.name }

// Mean is an online mean/min/max accumulator over float64 samples.
type Mean struct {
	name     string
	n        uint64
	sum      float64
	min, max float64
}

// Observe records a sample.
func (m *Mean) Observe(v float64) {
	if m.n == 0 || v < m.min {
		m.min = v
	}
	if m.n == 0 || v > m.max {
		m.max = v
	}
	m.n++
	m.sum += v
}

// N reports the sample count.
func (m *Mean) N() uint64 { return m.n }

// Sum reports the sample sum.
func (m *Mean) Sum() float64 { return m.sum }

// Name reports the registered name.
func (m *Mean) Name() string { return m.name }

// DefaultLatencyBounds are the inclusive upper bounds (in cycles) of the
// standard latency histogram, spanning a same-cycle port hit through a
// many-thousand-cycle contended walk. A final open-ended overflow bucket
// is implicit.
var DefaultLatencyBounds = []uint64{
	1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512,
	1024, 2048, 4096,
}

// Hist is a fixed-bucket histogram over uint64 samples (cycle counts).
// Bucket i counts samples <= bounds[i]; one extra open-ended bucket
// catches the overflow. Observe is allocation-free.
type Hist struct {
	name     string
	bounds   []uint64
	counts   []uint64 // len(bounds)+1; last is the overflow bucket
	n, sum   uint64
	min, max uint64
}

// Observe records a sample.
func (h *Hist) Observe(v uint64) {
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	// Linear scan: bounds are short and simulator latencies overwhelmingly
	// land in the first few buckets, where a scan beats a binary search.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count reports the number of samples.
func (h *Hist) Count() uint64 { return h.n }

// Sum reports the sample sum.
func (h *Hist) Sum() uint64 { return h.sum }

// Mean reports the sample mean, or 0 with no samples.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Name reports the registered name.
func (h *Hist) Name() string { return h.name }

// Registry holds one run's metrics. All registration happens at
// construction time (System.New); the returned typed handles are then
// incremented directly on the hot path with zero indirection beyond a
// pointer, and Snapshot freezes everything into a stable, sorted form.
type Registry struct {
	counters []*Counter
	atomics  []*AtomicCounter
	means    []*Mean
	hists    []*Hist
	names    map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]struct{}{}}
}

// register panics on duplicate names: metric names are code, and a
// collision is a wiring bug better caught at construction than merged
// silently.
func (r *Registry) register(name string) {
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	r.names[name] = struct{}{}
}

// Counter registers and returns a named counter.
func (r *Registry) Counter(name string) *Counter {
	r.register(name)
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// AtomicCounter registers and returns a named concurrency-safe counter.
// It shares the counter namespace and appears in snapshots alongside
// plain counters.
func (r *Registry) AtomicCounter(name string) *AtomicCounter {
	r.register(name)
	c := &AtomicCounter{name: name}
	r.atomics = append(r.atomics, c)
	return c
}

// Mean registers and returns a named online mean.
func (r *Registry) Mean(name string) *Mean {
	r.register(name)
	m := &Mean{name: name}
	r.means = append(r.means, m)
	return m
}

// Hist registers and returns a named histogram with the given inclusive
// upper bounds (nil selects DefaultLatencyBounds). Bounds must ascend.
func (r *Registry) Hist(name string, bounds []uint64) *Hist {
	r.register(name)
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
		}
	}
	h := &Hist{name: name, bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	r.hists = append(r.hists, h)
	return h
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// MeanValue is one online mean in a snapshot. Min/Max/Mean are 0 when
// N == 0 (NaN is not JSON-marshalable; N disambiguates).
type MeanValue struct {
	Name string  `json:"name"`
	N    uint64  `json:"n"`
	Sum  float64 `json:"sum"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// HistValue is one histogram in a snapshot. Counts has one more entry
// than Bounds: the final open-ended overflow bucket.
type HistValue struct {
	Name   string   `json:"name"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Mean   float64  `json:"mean"`
	Min    uint64   `json:"min"`
	Max    uint64   `json:"max"`
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
}

// Snapshot is a frozen, name-sorted copy of a registry's state, stable
// under JSON marshaling and reflect.DeepEqual (the determinism tests
// compare full Results including their snapshots).
type Snapshot struct {
	Counters []CounterValue `json:"counters"`
	Means    []MeanValue    `json:"means,omitempty"`
	Hists    []HistValue    `json:"histograms"`
}

// Snapshot freezes the registry. It allocates; call it once per run, off
// the hot path.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Value: c.v})
	}
	for _, c := range r.atomics {
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Value: c.Value()})
	}
	for _, m := range r.means {
		mv := MeanValue{Name: m.name, N: m.n, Sum: m.sum}
		if m.n > 0 {
			mv.Mean = m.sum / float64(m.n)
			mv.Min, mv.Max = m.min, m.max
		}
		s.Means = append(s.Means, mv)
	}
	for _, h := range r.hists {
		hv := HistValue{
			Name: h.name, Count: h.n, Sum: h.sum, Mean: h.Mean(),
			Bounds: append([]uint64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
		}
		if h.n > 0 {
			hv.Min, hv.Max = h.min, h.max
		}
		s.Hists = append(s.Hists, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Means, func(i, j int) bool { return s.Means[i].Name < s.Means[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}

// Counter finds a counter value by name in a snapshot.
func (s Snapshot) Counter(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Hist finds a histogram by name in a snapshot.
func (s Snapshot) Hist(name string) (HistValue, bool) {
	for _, h := range s.Hists {
		if h.Name == name {
			return h, true
		}
	}
	return HistValue{}, false
}

// Reset zeroes every registered metric while keeping the registrations
// and returned handles valid, so a measurement phase that begins mid-run
// (after a warmup) reports only its own events. Bounds and names are
// preserved; only accumulated state clears.
func (r *Registry) Reset() {
	for _, c := range r.counters {
		c.v = 0
	}
	for _, c := range r.atomics {
		c.v.Store(0)
	}
	for _, m := range r.means {
		m.n, m.sum, m.min, m.max = 0, 0, 0, 0
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i] = 0
		}
		h.n, h.sum, h.min, h.max = 0, 0, 0, 0
	}
}
