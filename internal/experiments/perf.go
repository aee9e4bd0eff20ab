package experiments

import (
	"fmt"
	"slices"

	"nocstar/internal/energy"
	"nocstar/internal/runner"
	"nocstar/internal/stats"
	"nocstar/internal/system"
)

// SpeedupGrid is a generic workload x configuration speedup table versus
// the private-L2-TLB baseline.
type SpeedupGrid struct {
	Title     string
	Workloads []string
	Configs   []string
	Speedup   map[string]map[string]float64 // workload -> config -> speedup
}

// Render prints the grid with a closing average row.
func (g SpeedupGrid) Render() string {
	t := stats.NewTable(g.Title)
	t.Row(append([]interface{}{"workload"}, toIfaces(g.Configs)...)...)
	sums := make([]float64, len(g.Configs))
	for _, w := range g.Workloads {
		row := []interface{}{w}
		for i, c := range g.Configs {
			v := g.Speedup[w][c]
			sums[i] += v
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.Row(row...)
	}
	row := []interface{}{"average"}
	for i := range sums {
		row = append(row, fmt.Sprintf("%.3f", sums[i]/float64(len(g.Workloads))))
	}
	t.Row(row...)
	return t.String()
}

// Average returns the mean speedup of one configuration column.
func (g SpeedupGrid) Average(config string) float64 {
	var vs []float64
	for _, w := range g.Workloads {
		vs = append(vs, g.Speedup[w][config])
	}
	return stats.Mean64(vs)
}

// speedupGrid runs each (workload, config) pair against the private
// baseline; build sets up configs[i]. All runs are submitted to the pool
// up front and joined in submission order, so the grid is identical to
// the serial path at any parallelism.
func speedupGrid(o Options, title string, cores int, thp bool,
	configs []string, build func(i int, cfg *system.Config)) SpeedupGrid {
	g := SpeedupGrid{
		Title:   title,
		Configs: configs,
		Speedup: map[string]map[string]float64{},
	}
	type cell struct {
		workload, config string
		baseline, run    *runner.Future
	}
	var cells []cell
	for _, spec := range o.suite() {
		g.Workloads = append(g.Workloads, spec.Name)
		g.Speedup[spec.Name] = map[string]float64{}
		priv := o.baselineFuture(spec, cores, thp)
		for i, name := range configs {
			cfg := o.baseConfig(system.Private, spec, cores, thp)
			build(i, &cfg)
			cells = append(cells, cell{spec.Name, name, priv, o.submit(cfg)})
		}
	}
	for _, c := range cells {
		g.Speedup[c.workload][c.config] = c.run.Wait().SpeedupOver(c.baseline.Wait())
	}
	return g
}

// ---------------------------------------------------------------------
// Fig. 4 — monolithic shared TLB speedups at forced total access
// latencies of 25/16/11/9 cycles, 32 cores.

// Fig4 reproduces the Section II-D motivation study.
func Fig4(o Options) SpeedupGrid {
	lats := []int{25, 16, 11, 9}
	var configs []string
	for _, l := range lats {
		configs = append(configs, fmt.Sprintf("Shared(%d-cc)", l))
	}
	return speedupGrid(o, "Fig. 4: monolithic shared TLB speedup vs forced access latency (32 cores)",
		32, false, configs, func(i int, cfg *system.Config) {
			cfg.Org = system.MonolithicFixed
			cfg.FixedAccessLatency = lats[i]
		})
}

// Fig12 — speedups at 16 cores with only 4 KB pages.
func Fig12(o Options) SpeedupGrid {
	return figPerf(o, "Fig. 12: speedups, 16 cores, 4KB pages", 16, false)
}

// Fig13 — speedups at 16 cores with transparent 2 MB superpages.
func Fig13(o Options) SpeedupGrid {
	return figPerf(o, "Fig. 13: speedups, 16 cores, transparent superpages", 16, true)
}

// figPerf is the Fig. 12/13 grid: the shared organizations and the
// zero-interconnect ideal.
func figPerf(o Options, title string, cores int, thp bool) SpeedupGrid {
	orgs := append(slices.Clip(sharedOrgs), namedOrg{"Ideal", system.IdealShared})
	return speedupGrid(o, title, cores, thp, orgNames(orgs), func(i int, cfg *system.Config) {
		cfg.Org = orgs[i].org
	})
}

// ---------------------------------------------------------------------
// Fig. 14 — scalability (left: min/avg/max speedups; right: percent of
// address-translation energy saved) at 16/32/64 cores with superpages.

// Fig14Row is one (cores, org) cell.
type Fig14Row struct {
	Cores         int
	Org           string
	Min, Avg, Max float64
	EnergySaved   float64 // percent of baseline translation energy
}

// Fig14Result holds the scalability sweep.
type Fig14Result struct {
	Rows []Fig14Row
}

// Fig14 runs the sweep. Each (cores, org, workload) run is submitted
// once, with its private baseline, and yields both its speedup and its
// translation energy saved.
func Fig14(o Options) Fig14Result {
	type cell struct {
		baseline, run *runner.Future
	}
	// Submit every run before joining any.
	cells := map[int]map[string][]cell{}
	for _, cores := range o.coreCounts() {
		cells[cores] = map[string][]cell{}
		for _, spec := range o.suite() {
			priv := o.baselineFuture(spec, cores, true)
			for _, org := range sharedOrgs {
				cells[cores][org.name] = append(cells[cores][org.name],
					cell{priv, o.submit(o.baseConfig(org.org, spec, cores, true))})
			}
		}
	}
	var res Fig14Result
	for _, cores := range o.coreCounts() {
		for _, org := range sharedOrgs {
			var speedups, saved []float64
			for _, c := range cells[cores][org.name] {
				priv, r := c.baseline.Wait(), c.run.Wait()
				speedups = append(speedups, r.SpeedupOver(priv))
				saved = append(saved, energy.PercentSaved(&r.Energy, &priv.Energy))
			}
			lo, hi := stats.MinMax(speedups)
			res.Rows = append(res.Rows, Fig14Row{Cores: cores, Org: org.name,
				Min: lo, Avg: stats.Mean64(speedups), Max: hi, EnergySaved: stats.Mean64(saved)})
		}
	}
	return res
}

// Render prints both panels of Fig. 14.
func (r Fig14Result) Render() string {
	t := stats.NewTable("Fig. 14: scalability (speedups and % translation energy saved, THP)")
	t.Row("cores", "org", "min", "avg", "max", "% energy saved")
	for _, row := range r.Rows {
		t.Row(row.Cores, row.Org,
			fmt.Sprintf("%.3f", row.Min), fmt.Sprintf("%.3f", row.Avg),
			fmt.Sprintf("%.3f", row.Max), fmt.Sprintf("%.1f", row.EnergySaved))
	}
	return t.String()
}

// ---------------------------------------------------------------------
// Fig. 15 — teasing apart the interconnect contribution at 32 cores:
// monolithic over multi-hop mesh and SMART, distributed, NOCSTAR,
// NOCSTAR with an ideal (contention-free) fabric, and the
// zero-interconnect ideal.

// Fig15 runs the interconnect decomposition.
func Fig15(o Options) SpeedupGrid {
	orgs := []namedOrg{
		{"Mono(mesh)", system.MonolithicMesh},
		{"Mono(SMART)", system.MonolithicSMART},
		{"Distributed", system.DistributedMesh},
		{"NOCSTAR", system.Nocstar},
		{"NOCSTAR(ideal)", system.NocstarIdeal},
		{"Ideal", system.IdealShared},
	}
	return speedupGrid(o, "Fig. 15: interconnect decomposition, 32 cores",
		32, false, orgNames(orgs), func(i int, cfg *system.Config) {
			cfg.Org = orgs[i].org
		})
}
