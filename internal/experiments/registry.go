package experiments

import (
	"fmt"
	"sort"
)

// Renderer is any experiment result that can print its rows.
type Renderer interface {
	Render() string
}

// Entry describes one runnable experiment.
type Entry struct {
	ID          string
	Description string
	Run         func(Options) Renderer
}

// Registry lists every experiment by figure/table ID. Each entry's Run
// stamps Options.Experiment with its ID (unless the caller set one), so
// every simulation a driver submits carries its experiment's name as a
// pprof label.
func Registry() []Entry {
	entries := []Entry{
		{"tab1", "Table I: interconnect design space",
			func(Options) Renderer { return Table1() }},
		{"fig2", "Fig. 2: % private L2 TLB misses eliminated by sharing",
			func(o Options) Renderer { return Fig2(o) }},
		{"fig3", "Fig. 3: SRAM TLB latency vs size",
			func(Options) Renderer { return Fig3() }},
		{"fig4", "Fig. 4: monolithic shared TLB at forced access latencies",
			func(o Options) Renderer { return Fig4(o) }},
		{"fig5", "Fig. 5: shared L2 TLB access concurrency (32 cores)",
			func(o Options) Renderer { return Fig5(o) }},
		{"fig6", "Fig. 6: concurrency vs L1 size, core count, slice count",
			func(o Options) Renderer { return Fig6(o) }},
		{"fig9", "Fig. 9: NOCSTAR tile power/area",
			func(Options) Renderer { return Fig9() }},
		{"fig11a", "Fig. 11(a): access latency vs hops",
			func(Options) Renderer { return Fig11a() }},
		{"fig11b", "Fig. 11(b): per-message energy vs hops",
			func(Options) Renderer { return Fig11b() }},
		{"fig11c", "Fig. 11(c): latency vs injection rate (64 nodes)",
			func(o Options) Renderer { return Fig11c(o) }},
		{"fig12", "Fig. 12: speedups, 16 cores, 4KB pages",
			func(o Options) Renderer { return Fig12(o) }},
		{"fig13", "Fig. 13: speedups, 16 cores, superpages",
			func(o Options) Renderer { return Fig13(o) }},
		{"fig14", "Fig. 14: scalability and energy, 16-64 cores",
			func(o Options) Renderer { return Fig14(o) }},
		{"fig15", "Fig. 15: interconnect decomposition, 32 cores",
			func(o Options) Renderer { return Fig15(o) }},
		{"fig16l", "Fig. 16 (left): link acquisition policy",
			func(o Options) Renderer { return Fig16Left(o) }},
		{"fig16r", "Fig. 16 (right): invalidation leader granularity",
			func(o Options) Renderer { return Fig16Right(o) }},
		{"fig17", "Fig. 17: page walk placement",
			func(o Options) Renderer { return Fig17(o) }},
		{"tab3", "Table III: prefetch/SMT/PTW-latency sensitivity",
			func(o Options) Renderer { return Table3(o) }},
		{"fig18", "Fig. 18: 330 multiprogrammed combinations",
			func(o Options) Renderer { return Fig18(o) }},
		{"fig19", "Fig. 19: TLB storm microbenchmark",
			func(o Options) Renderer { return Fig19(o) }},
		{"slice", "TLB slice microbenchmark",
			func(o Options) Renderer { return SliceHammer(o) }},
		{"abl-hpc", "Ablation: NOCSTAR vs HPCmax pipelining bound",
			func(o Options) Renderer { return AblationHPC(o) }},
		{"abl-spec", "Ablation: speculative response path setup",
			func(o Options) Renderer { return AblationSpeculation(o) }},
		{"abl-qos", "Ablation: QoS slice partitioning (future work)",
			func(o Options) Renderer { return AblationQoS(o) }},
		{"smoke1024", "1024-core DistributedMesh smoke",
			func(o Options) Renderer { return Smoke1024(o) }},
		{"placement", "Slice placement vs fabric topology (speedup over row-major)",
			func(o Options) Renderer { return Placement(o) }},
	}
	for i := range entries {
		id, run := entries[i].ID, entries[i].Run
		entries[i].Run = func(o Options) Renderer {
			if o.Experiment == "" {
				o.Experiment = id
			}
			return run(o)
		}
	}
	return entries
}

// Description is the marshalable summary of one registry entry, the
// document GET /v1/experiments serves.
type Description struct {
	ID          string `json:"id"`
	Description string `json:"description"`
}

// Describe lists every experiment's ID and description in registry
// order.
func Describe() []Description {
	reg := Registry()
	out := make([]Description, len(reg))
	for i, e := range reg {
		out[i] = Description{ID: e.ID, Description: e.Description}
	}
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Entry, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(Registry()))
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Entry{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}
