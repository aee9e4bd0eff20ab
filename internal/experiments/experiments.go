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

// defaultPool returns the runner every driver submits through. Tests
// that compare two executions of one figure give each side a fresh pool.
var defaultPool = runner.Default

// pool returns the shared runner resized to o.Parallelism.
func (o Options) pool() *runner.Runner {
	r := defaultPool()
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

// submit schedules cfg on the pool through its memo, the one way a driver
// runs a simulation. The figures vary one knob at a time from one default
// machine, so they share configurations (Fig. 5's runs are Fig. 15's
// NOCSTAR column, the report's probes are Fig. 12's); a configuration
// any driver already ran in this process is returned, not run again.
func (o Options) submit(cfg system.Config) *runner.Future {
	return o.pool().SubmitCachedContext(o.ctx(), cfg)
}

// baselineFuture submits the private-L2-TLB run every speedup is
// measured against.
func (o Options) baselineFuture(spec workload.Spec, cores int, thp bool) *runner.Future {
	return o.submit(o.baseConfig(system.Private, spec, cores, thp))
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
