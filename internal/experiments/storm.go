package experiments

import (
	"fmt"

	"nocstar/internal/runner"
	"nocstar/internal/stats"
	"nocstar/internal/system"
	"nocstar/internal/workload"
)

// ---------------------------------------------------------------------
// Fig. 19 — the TLB-storm microbenchmark: workloads co-run with a
// process that context-switches aggressively (flushing all shared TLB
// state) and continuously promotes/demotes superpages (512-entry
// invalidation bursts), at 16/32/64 cores.

// Fig19Cell is one (cores, org) pair of speedups.
type Fig19Cell struct {
	Cores  int
	Org    string
	Alone  float64 // workload running alone (matches Figs. 12-14 data)
	WithUB float64 // co-run with the storm microbenchmark
}

// Fig19Result holds the grid.
type Fig19Result struct {
	Cells []Fig19Cell
}

// stormConfig is the paper's most aggressive setting, scaled to the
// simulated window: context switches every ~0.5 ms equivalent and a
// steady promote/demote churn.
func stormConfig(instr uint64) *system.StormConfig {
	cs := instr / 4
	if cs < 10_000 {
		cs = 10_000
	}
	return &system.StormConfig{
		ContextSwitchInterval: cs,
		PromoteDemoteInterval: 8_000,
		Pages:                 4096,
	}
}

// Fig19 runs the storm study, averaging speedups across the (possibly
// filtered) suite.
func Fig19(o Options) Fig19Result {
	var res Fig19Result
	orgs := []struct {
		name string
		org  system.Org
	}{
		{"Mon", system.MonolithicMesh},
		{"Dis", system.DistributedMesh},
		{"NSTAR", system.Nocstar},
	}
	type quad struct {
		privAlone, alone, privStorm, storm *runner.Future
	}
	var pending [][]quad // one slice of quads per (cores, org) cell
	for _, cores := range o.coreCounts() {
		for _, org := range orgs {
			var quads []quad
			for _, spec := range o.suite() {
				cfgA := o.baseConfig(org.org, spec, cores, false)

				// Under the storm, private baselines suffer too: the
				// comparison is each organization with the storm active
				// versus private with the storm active. Shared
				// organizations route invalidations through one leader
				// per 8 cores, the paper's middle-ground policy.
				cfgPS := o.baseConfig(system.Private, spec, cores, false)
				cfgPS.Storm = stormConfig(o.Instr)

				cfgS := o.baseConfig(org.org, spec, cores, false)
				cfgS.Storm = stormConfig(o.Instr)
				cfgS.InvLeaders = cores / 8

				quads = append(quads, quad{
					privAlone: o.baselineFuture(spec, cores, false),
					alone:     o.submit(cfgA),
					privStorm: o.submit(cfgPS),
					storm:     o.submit(cfgS),
				})
			}
			pending = append(pending, quads)
		}
	}
	i := 0
	for _, cores := range o.coreCounts() {
		for _, org := range orgs {
			var alone, withUB []float64
			for _, q := range pending[i] {
				alone = append(alone, q.alone.Wait().SpeedupOver(q.privAlone.Wait()))
				withUB = append(withUB, q.storm.Wait().SpeedupOver(q.privStorm.Wait()))
			}
			i++
			res.Cells = append(res.Cells, Fig19Cell{
				Cores: cores, Org: org.name,
				Alone: stats.Mean64(alone), WithUB: stats.Mean64(withUB),
			})
		}
	}
	return res
}

// Cell finds a grid cell.
func (r Fig19Result) Cell(cores int, org string) (Fig19Cell, bool) {
	for _, c := range r.Cells {
		if c.Cores == cores && c.Org == org {
			return c, true
		}
	}
	return Fig19Cell{}, false
}

// Render prints the grid.
func (r Fig19Result) Render() string {
	t := stats.NewTable("Fig. 19: TLB-storm microbenchmark (avg speedup vs private)")
	t.Row("cores", "org", "alone", "w/ub")
	for _, c := range r.Cells {
		t.Row(c.Cores, c.Org, fmt.Sprintf("%.3f", c.Alone), fmt.Sprintf("%.3f", c.WithUB))
	}
	return t.String()
}

// ---------------------------------------------------------------------
// The Section V "TLB slice microbenchmark": N-1 threads continuously
// hammer the L2 TLB slice assigned to the Nth core while that core runs
// a real workload.

// SliceHammerResult holds per-organization victim speedups.
type SliceHammerResult struct {
	Cores int
	// Speedup of the victim application vs the same scenario on private
	// L2 TLBs, per organization.
	Victim map[string]float64
}

// SliceHammer runs the stress test on a 16-core system with canneal as
// the victim.
func SliceHammer(o Options) SliceHammerResult {
	const cores = 16
	victim, _ := workload.ByName("canneal")
	hammer := workload.Uniform("hammer", 8000)

	mkConfig := func(org system.Org) system.Config {
		return system.Config{
			Org:   org,
			Cores: cores,
			Apps: []system.App{
				{Spec: victim, Threads: 1, HammerSlice: system.HammerNone},
				{Spec: hammer, Threads: cores - 1, HammerSlice: cores - 1},
			},
			InstrPerThread: o.Instr,
			Seed:           o.Seed,
		}
	}
	privF := o.submit(mkConfig(system.Private))
	futs := make([]*runner.Future, len(sharedOrgs))
	for i, org := range sharedOrgs {
		futs[i] = o.submit(mkConfig(org.org))
	}
	priv := privF.Wait()
	res := SliceHammerResult{Cores: cores, Victim: map[string]float64{}}
	for i, org := range sharedOrgs {
		r := futs[i].Wait()
		res.Victim[org.name] = r.Apps[0].IPC / priv.Apps[0].IPC
	}
	return res
}

// Render prints the victim's speedups.
func (r SliceHammerResult) Render() string {
	t := stats.NewTable("TLB slice microbenchmark: victim speedup under slice hammering")
	t.Row("org", "victim speedup vs private")
	for _, k := range sortedKeys(r.Victim) {
		t.Row(k, fmt.Sprintf("%.3f", r.Victim[k]))
	}
	return t.String()
}
