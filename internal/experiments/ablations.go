package experiments

import (
	"fmt"

	"nocstar/internal/runner"
	"nocstar/internal/stats"
	"nocstar/internal/system"
)

// This file holds ablations of NOCSTAR design choices beyond the paper's
// own figures: the maximum-hops-per-cycle pipelining bound (Section
// III-B3) and the speculative response-path setup of the Fig. 10
// timeline.

// ---------------------------------------------------------------------
// HPCmax ablation: how much of NOCSTAR's win survives as technology
// forces pipeline latches onto the single-cycle datapath?

// HPCResult holds per-HPCmax average speedups at 64 cores.
type HPCResult struct {
	HPC     []int // 0 means unbounded (whole chip per cycle)
	Speedup []float64
}

// AblationHPC sweeps HPCmax on the 64-core system.
func AblationHPC(o Options) HPCResult {
	res := HPCResult{HPC: []int{2, 4, 8, 16, 0}}
	const cores = 64
	type pair struct{ baseline, run *runner.Future }
	runs := make([][]pair, len(res.HPC))
	for i, hpc := range res.HPC {
		for _, spec := range o.suite() {
			cfg := o.baseConfig(system.Nocstar, spec, cores, false)
			cfg.HPCmax = hpc
			if hpc == 0 {
				cfg.HPCmax = 1 << 20 // effectively unbounded
			}
			runs[i] = append(runs[i], pair{o.baselineFuture(spec, cores, false), o.submit(cfg)})
		}
	}
	for _, hpcRuns := range runs {
		var vs []float64
		for _, p := range hpcRuns {
			vs = append(vs, p.run.Wait().SpeedupOver(p.baseline.Wait()))
		}
		res.Speedup = append(res.Speedup, stats.Mean64(vs))
	}
	return res
}

// Render prints the sweep.
func (r HPCResult) Render() string {
	t := stats.NewTable("Ablation: NOCSTAR speedup vs HPCmax (64 cores)")
	t.Row("HPCmax", "avg speedup")
	for i, h := range r.HPC {
		label := fmt.Sprintf("%d", h)
		if h == 0 {
			label = "unbounded"
		}
		t.Row(label, fmt.Sprintf("%.3f", r.Speedup[i]))
	}
	return t.String()
}

// ---------------------------------------------------------------------
// Speculative response-path setup ablation (Fig. 10: "The response path
// can be setup speculatively, during the L2 TLB lookup").

// SpeculationResult compares speculative vs demand response setup.
type SpeculationResult struct {
	Speculative float64
	Demand      float64
}

// AblationSpeculation measures both modes at 32 cores.
func AblationSpeculation(o Options) SpeculationResult {
	const cores = 32
	type trio struct{ baseline, spec, demand *runner.Future }
	var runs []trio
	for _, w := range o.suite() {
		cfg := o.baseConfig(system.Nocstar, w, cores, false)
		cfg2 := o.baseConfig(system.Nocstar, w, cores, false)
		cfg2.NoSpeculativeResponse = true
		runs = append(runs, trio{o.baselineFuture(w, cores, false), o.submit(cfg), o.submit(cfg2)})
	}
	var spec, demand []float64
	for _, t := range runs {
		priv := t.baseline.Wait()
		spec = append(spec, t.spec.Wait().SpeedupOver(priv))
		demand = append(demand, t.demand.Wait().SpeedupOver(priv))
	}
	return SpeculationResult{
		Speculative: stats.Mean64(spec),
		Demand:      stats.Mean64(demand),
	}
}

// Render prints both modes.
func (r SpeculationResult) Render() string {
	t := stats.NewTable("Ablation: speculative response path setup (32 cores)")
	t.Row("response setup", "avg speedup")
	t.Row("speculative (Fig. 10)", fmt.Sprintf("%.3f", r.Speculative))
	t.Row("demand (after lookup)", fmt.Sprintf("%.3f", r.Demand))
	return t.String()
}
