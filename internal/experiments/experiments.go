// Package experiments regenerates every table and figure of the paper's
// evaluation (and the simulation-derived motivation figures of Section
// II). Each driver returns a structured result whose Render method prints
// the same rows or series the paper reports; cmd/nocstar-exp exposes them
// on the command line and bench_test.go as testing.B benchmarks.
package experiments

import (
	"context"
	"sort"

	"nocstar/internal/runner"
	"nocstar/internal/system"
	"nocstar/internal/workload"
)

// Options tune experiment scale. The defaults favour fidelity; benchmarks
// and tests shrink Instr for speed.
type Options struct {
	// Instr is the per-thread instruction budget of each run.
	Instr uint64
	// Seed drives all randomness.
	Seed int64
	// Workloads filters the suite (nil = all eleven).
	Workloads []string
	// Combos bounds the Fig. 18 multiprogrammed combinations (0 = all 330).
	Combos int
	// CoreCounts overrides the scaling experiments' core counts
	// (nil = the paper's 16/32/64).
	CoreCounts []int
	// Parallelism bounds how many simulations run concurrently
	// (0 = GOMAXPROCS). Each run is a self-contained deterministic
	// simulation, so rendered output is byte-identical at any setting.
	Parallelism int
	// Experiment names the figure/table submitting runs; the registry
	// stamps it so profiles attribute simulations to their experiment.
	Experiment string
}

// coreCounts returns the core-count sweep.
func (o Options) coreCounts() []int {
	if len(o.CoreCounts) > 0 {
		return o.CoreCounts
	}
	return []int{16, 32, 64}
}

// DefaultOptions returns the scale used for the recorded results in
// EXPERIMENTS.md.
func DefaultOptions() Options {
	return Options{Instr: 150_000, Seed: 1}
}

// suite returns the selected workload specs.
func (o Options) suite() []workload.Spec {
	if len(o.Workloads) == 0 {
		return workload.Suite()
	}
	var out []workload.Spec
	for _, name := range o.Workloads {
		if s, ok := workload.ByName(name); ok {
			out = append(out, s)
		}
	}
	return out
}

// focusSuite returns the four workloads the paper uses in its policy
// studies (Figs. 16 and 17), intersected with any filter.
func (o Options) focusSuite() []workload.Spec {
	focus := []string{"canneal", "graph500", "gups", "xsbench"}
	if len(o.Workloads) > 0 {
		focus = o.Workloads
	}
	var out []workload.Spec
	for _, name := range focus {
		if s, ok := workload.ByName(name); ok {
			out = append(out, s)
		}
	}
	return out
}

// namedOrg is an organization under the label a figure prints for it.
type namedOrg struct {
	name string
	org  system.Org
}

// sharedOrgs are the three shared organizations the evaluation compares
// with the private baseline, in the order the figures list them.
var sharedOrgs = []namedOrg{
	{"Monolithic", system.MonolithicMesh},
	{"Distributed", system.DistributedMesh},
	{"NOCSTAR", system.Nocstar},
}

// orgNames returns the labels of orgs, in order.
func orgNames(orgs []namedOrg) []string {
	names := make([]string, len(orgs))
	for i, org := range orgs {
		names[i] = org.name
	}
	return names
}

// baseConfig builds the standard single-application configuration: one
// thread per core running spec.
func (o Options) baseConfig(org system.Org, spec workload.Spec, cores int, thp bool) system.Config {
	return system.Config{
		Org:            org,
		Cores:          cores,
		Apps:           []system.App{{Spec: spec, Threads: cores, HammerSlice: system.HammerNone}},
		THP:            thp,
		InstrPerThread: o.Instr,
		Seed:           o.Seed,
	}
}

// pool returns the process-wide runner resized to o.Parallelism. All
// drivers submit their runs through it: identical in-flight configs are
// deduplicated, and private baselines are memoized across experiments.
func (o Options) pool() *runner.Runner {
	r := runner.Default()
	r.SetParallelism(o.Parallelism)
	return r
}

// ctx labels submissions with the owning experiment for pprof.
func (o Options) ctx() context.Context {
	if o.Experiment == "" {
		return context.Background()
	}
	return runner.WithExperiment(context.Background(), o.Experiment)
}

// submit schedules a config on the pool.
func (o Options) submit(cfg system.Config) *runner.Future {
	return o.pool().SubmitContext(o.ctx(), cfg)
}

// submitShared is submit through the pool's memo cache, for runs that
// more than one part of an invocation needs: the completed result is
// kept, so a later identical submission reuses it instead of running
// again.
func (o Options) submitShared(cfg system.Config) *runner.Future {
	return o.pool().SubmitCachedContext(o.ctx(), cfg)
}

// baselineFuture schedules (or retrieves the memoized) private-L2-TLB run
// every speedup is measured against.
func (o Options) baselineFuture(spec workload.Spec, cores int, thp bool) *runner.Future {
	return o.submitShared(o.baseConfig(system.Private, spec, cores, thp))
}

// probeCores is the core count of the report's NOCSTAR probes.
func (o Options) probeCores() int { return o.coreCounts()[0] }

// probeFuture schedules (or retrieves the memoized) NOCSTAR run with
// 4 KB pages at the probe core count: the report's probe of spec, which
// Fig. 12 also runs at the default core counts.
func (o Options) probeFuture(spec workload.Spec) *runner.Future {
	return o.submitShared(o.baseConfig(system.Nocstar, spec, o.probeCores(), false))
}

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
