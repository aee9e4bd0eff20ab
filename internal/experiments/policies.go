package experiments

import (
	"fmt"

	"nocstar/internal/noc"
	"nocstar/internal/ptw"
	"nocstar/internal/runner"
	"nocstar/internal/stats"
	"nocstar/internal/system"
)

// focusGrid runs NOCSTAR variants over the four policy-study workloads at
// several core counts, reporting speedup versus the private baseline.
type focusGrid struct {
	Title     string
	Cores     []int
	Variants  []string
	Workloads []string
	// Speedup[cores][variant][workload]
	Speedup map[int]map[string]map[string]float64
}

// Render prints one block per core count.
func (g focusGrid) Render() string {
	t := stats.NewTable(g.Title)
	t.Row(append([]interface{}{"cores", "variant"}, toIfaces(append(g.Workloads, "average"))...)...)
	for _, c := range g.Cores {
		for _, v := range g.Variants {
			row := []interface{}{c, v}
			var vs []float64
			for _, w := range g.Workloads {
				s := g.Speedup[c][v][w]
				vs = append(vs, s)
				row = append(row, fmt.Sprintf("%.3f", s))
			}
			row = append(row, fmt.Sprintf("%.3f", stats.Mean64(vs)))
			t.Row(row...)
		}
	}
	return t.String()
}

// Average returns the mean speedup of one (cores, variant) row.
func (g focusGrid) Average(cores int, variant string) float64 {
	var vs []float64
	for _, w := range g.Workloads {
		vs = append(vs, g.Speedup[cores][variant][w])
	}
	return stats.Mean64(vs)
}

// runFocus evaluates NOCSTAR variants on the focus workloads.
func runFocus(o Options, title string, cores []int, variants []string,
	build func(variant string, cores int, cfg *system.Config)) focusGrid {
	g := focusGrid{
		Title:    title,
		Cores:    cores,
		Variants: variants,
		Speedup:  map[int]map[string]map[string]float64{},
	}
	specs := o.focusSuite()
	for _, s := range specs {
		g.Workloads = append(g.Workloads, s.Name)
	}
	type cell struct {
		cores         int
		variant, name string
		baseline, run *runner.Future
	}
	var cells []cell
	for _, c := range cores {
		g.Speedup[c] = map[string]map[string]float64{}
		for _, v := range variants {
			g.Speedup[c][v] = map[string]float64{}
			for _, spec := range specs {
				cfg := o.baseConfig(system.Nocstar, spec, c, false)
				build(v, c, &cfg)
				cells = append(cells, cell{c, v, spec.Name,
					o.baselineFuture(spec, c, false), o.submit(cfg)})
			}
		}
	}
	for _, cl := range cells {
		g.Speedup[cl.cores][cl.variant][cl.name] = cl.run.Wait().SpeedupOver(cl.baseline.Wait())
	}
	return g
}

// Fig16LeftResult is the link-acquisition study.
type Fig16LeftResult struct{ focusGrid }

// Fig16Left compares round-trip (1xtwo-way) against per-message
// (2xone-way) link acquisition at 16/32/64 cores.
func Fig16Left(o Options) Fig16LeftResult {
	g := runFocus(o, "Fig. 16 (left): link acquisition policy",
		o.coreCounts(), []string{"1xtwo-way", "2xone-way"},
		func(v string, _ int, cfg *system.Config) {
			if v == "1xtwo-way" {
				cfg.Acquire = noc.RoundTripAcquire
			} else {
				cfg.Acquire = noc.OneWayAcquire
			}
		})
	return Fig16LeftResult{g}
}

// Fig16RightResult is the invalidation-leader study.
type Fig16RightResult struct{ focusGrid }

// Fig16Right compares shootdown invalidation-leader granularities
// (one leader per 4 cores, per 8 cores, per N cores i.e. direct sends)
// under steady shootdown traffic.
func Fig16Right(o Options) Fig16RightResult {
	g := runFocus(o, "Fig. 16 (right): TLB invalidation leader granularity",
		o.coreCounts(), []string{"per-4-core", "per-8-core", "per-N-core"},
		func(v string, cores int, cfg *system.Config) {
			cfg.ShootdownInterval = 3_000
			switch v {
			case "per-4-core":
				cfg.InvLeaders = cores / 4
			case "per-8-core":
				cfg.InvLeaders = cores / 8
			default: // per-N: every core relays its own invalidations
				cfg.InvLeaders = 0
			}
		})
	return Fig16RightResult{g}
}

// Fig17Result is the page-walk placement study.
type Fig17Result struct{ focusGrid }

// Fig17 compares walking at the requesting core against walking at the
// remote slice-owning core, at 16/32/64 cores.
func Fig17(o Options) Fig17Result {
	g := runFocus(o, "Fig. 17: page table walk placement",
		o.coreCounts(), []string{"Request", "Remote"},
		func(v string, _ int, cfg *system.Config) {
			if v == "Remote" {
				cfg.Policy = system.WalkAtRemote
			} else {
				cfg.Policy = system.WalkAtRequester
			}
		})
	return Fig17Result{g}
}

// ---------------------------------------------------------------------
// Table III — sensitivity to prefetching, SMT, and page-walk latency on
// a 32-core system.

// Table3Row is one scenario x organization row.
type Table3Row struct {
	Prefetch      string
	SMT           int
	PTW           string
	Org           string
	Min, Avg, Max float64
}

// Table3Result holds all rows.
type Table3Result struct {
	Rows []Table3Row
}

// table3Scenarios mirrors the paper's row set.
var table3Scenarios = []struct {
	label    string
	prefetch int
	smt      int
	ptw      ptw.Config
}{
	{"No/1/Variable", 0, 1, ptw.Config{Mode: ptw.Variable}},
	{"1/1/Variable", 1, 1, ptw.Config{Mode: ptw.Variable}},
	{"1,2/1/Variable", 2, 1, ptw.Config{Mode: ptw.Variable}},
	{"1-3/1/Variable", 3, 1, ptw.Config{Mode: ptw.Variable}},
	{"No/2/Variable", 0, 2, ptw.Config{Mode: ptw.Variable}},
	{"No/4/Variable", 0, 4, ptw.Config{Mode: ptw.Variable}},
	{"No/1/Fixed-10", 0, 1, ptw.Config{Mode: ptw.Fixed, FixedLatency: 10}},
	{"No/1/Fixed-20", 0, 1, ptw.Config{Mode: ptw.Fixed, FixedLatency: 20}},
	{"No/1/Fixed-40", 0, 1, ptw.Config{Mode: ptw.Fixed, FixedLatency: 40}},
	{"No/1/Fixed-80", 0, 1, ptw.Config{Mode: ptw.Fixed, FixedLatency: 80}},
}

// Table3 runs the sensitivity sweep. The scenario labels read
// prefetch/SMT/page-walk-latency, matching the paper's columns.
func Table3(o Options) Table3Result {
	var res Table3Result
	const cores = 32
	// Submit every scenario's baselines and organization runs before
	// joining any: scenario baselines and shared-org runs are mutually
	// independent.
	type scenarioRuns struct {
		baselines map[string]*runner.Future
		orgRuns   [][]*runner.Future // [org][workload]
	}
	var pending []scenarioRuns
	for _, sc := range table3Scenarios {
		sr := scenarioRuns{baselines: map[string]*runner.Future{}}
		// Baselines must share the scenario's SMT and PTW settings.
		for _, spec := range o.suite() {
			cfg := o.baseConfig(system.Private, spec, cores, false)
			applyScenario(&cfg, sc.prefetch, sc.smt, sc.ptw, cores)
			sr.baselines[spec.Name] = o.submit(cfg)
		}
		for _, org := range sharedOrgs {
			var futs []*runner.Future
			for _, spec := range o.suite() {
				cfg := o.baseConfig(org.org, spec, cores, false)
				applyScenario(&cfg, sc.prefetch, sc.smt, sc.ptw, cores)
				futs = append(futs, o.submit(cfg))
			}
			sr.orgRuns = append(sr.orgRuns, futs)
		}
		pending = append(pending, sr)
	}
	for si, sc := range table3Scenarios {
		sr := pending[si]
		for oi, org := range sharedOrgs {
			var vs []float64
			for wi, spec := range o.suite() {
				base := sr.baselines[spec.Name].Wait()
				vs = append(vs, sr.orgRuns[oi][wi].Wait().SpeedupOver(base))
			}
			lo, hi := stats.MinMax(vs)
			res.Rows = append(res.Rows, Table3Row{
				Prefetch: sc.label, SMT: sc.smt, PTW: ptwLabel(sc.ptw),
				Org: org.name, Min: lo, Avg: stats.Mean64(vs), Max: hi,
			})
		}
	}
	return res
}

// applyScenario sets the Table III knobs on a config.
func applyScenario(cfg *system.Config, prefetch, smt int, p ptw.Config, cores int) {
	cfg.PrefetchDegree = prefetch
	cfg.SMT = smt
	cfg.PTW = p
	if smt > 1 {
		cfg.Apps[0].Threads = cores * smt
		// Keep total work comparable across SMT settings.
		cfg.InstrPerThread /= uint64(smt)
		if cfg.InstrPerThread == 0 {
			cfg.InstrPerThread = 1
		}
	}
}

func ptwLabel(p ptw.Config) string {
	if p.Mode == ptw.Fixed {
		return fmt.Sprintf("Fixed-%d", p.FixedLatency)
	}
	return "Variable"
}

// Render prints the table.
func (r Table3Result) Render() string {
	t := stats.NewTable("Table III: sensitivity (prefetch/SMT/PTW latency), 32 cores")
	t.Row("scenario", "org", "min", "avg", "max")
	for _, row := range r.Rows {
		t.Row(row.Prefetch, row.Org,
			fmt.Sprintf("%.3f", row.Min), fmt.Sprintf("%.3f", row.Avg), fmt.Sprintf("%.3f", row.Max))
	}
	return t.String()
}

// Row finds a row by scenario label and organization.
func (r Table3Result) Row(scenario, org string) (Table3Row, bool) {
	for _, row := range r.Rows {
		if row.Prefetch == scenario && row.Org == org {
			return row, true
		}
	}
	return Table3Row{}, false
}
