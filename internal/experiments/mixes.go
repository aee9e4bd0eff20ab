package experiments

import (
	"fmt"
	"sort"
	"strings"

	"nocstar/internal/runner"
	"nocstar/internal/stats"
	"nocstar/internal/system"
	"nocstar/internal/workload"
)

// ---------------------------------------------------------------------
// Fig. 18 — multiprogrammed combinations of four applications, eight
// threads each, on a 32-core system: overall throughput speedup and the
// worst-performing application's speedup, for each shared organization.

// Fig18Combo is one 4-app combination's outcome.
type Fig18Combo struct {
	Apps []string
	// Throughput and Worst map organization -> speedup vs private.
	Throughput map[string]float64
	Worst      map[string]float64
}

// Fig18Result holds all evaluated combinations.
type Fig18Result struct {
	Combos []Fig18Combo
	Orgs   []string
}

// Fig18 evaluates the C(11,4) = 330 combinations (or the first
// o.Combos of them in deterministic order). Each application runs eight
// threads, using all 32 cores.
func Fig18(o Options) Fig18Result {
	suite := workload.Suite()
	combos := chooseFour(len(suite))
	if o.Combos > 0 && o.Combos < len(combos) {
		combos = combos[:o.Combos]
	}
	res := Fig18Result{Orgs: orgNames(sharedOrgs)}
	// Submit every combination's private and shared runs up front, then
	// join in the deterministic combination order.
	type comboRuns struct {
		names []string
		priv  *runner.Future
		orgs  []*runner.Future // indexed like sharedOrgs
	}
	var pending []comboRuns
	for _, idx := range combos {
		apps := make([]system.App, 4)
		names := make([]string, 4)
		for i, wi := range idx {
			apps[i] = system.App{Spec: suite[wi], Threads: 8, HammerSlice: system.HammerNone}
			names[i] = suite[wi].Name
		}
		mkConfig := func(org system.Org) system.Config {
			return system.Config{
				Org:            org,
				Cores:          32,
				Apps:           apps,
				InstrPerThread: o.Instr,
				Seed:           o.Seed,
			}
		}
		cr := comboRuns{names: names, priv: o.submit(mkConfig(system.Private))}
		for _, org := range sharedOrgs {
			cr.orgs = append(cr.orgs, o.submit(mkConfig(org.org)))
		}
		pending = append(pending, cr)
	}
	for _, cr := range pending {
		priv := cr.priv.Wait()
		combo := Fig18Combo{
			Apps:       cr.names,
			Throughput: map[string]float64{},
			Worst:      map[string]float64{},
		}
		for i, name := range res.Orgs {
			r := cr.orgs[i].Wait()
			combo.Throughput[name] = r.ThroughputSpeedupOver(priv)
			combo.Worst[name] = r.WorstAppSpeedupOver(priv)
		}
		res.Combos = append(res.Combos, combo)
	}
	return res
}

// chooseFour enumerates 4-element index combinations in lexicographic
// order.
func chooseFour(n int) [][4]int {
	var out [][4]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				for d := c + 1; d < n; d++ {
					out = append(out, [4]int{a, b, c, d})
				}
			}
		}
	}
	return out
}

// SortedThroughput returns one organization's throughput speedups in
// ascending order (the paper plots the sorted curve).
func (r Fig18Result) SortedThroughput(org string) []float64 {
	var out []float64
	for _, c := range r.Combos {
		out = append(out, c.Throughput[org])
	}
	sort.Float64s(out)
	return out
}

// SortedWorst returns the worst-app speedups in ascending order.
func (r Fig18Result) SortedWorst(org string) []float64 {
	var out []float64
	for _, c := range r.Combos {
		out = append(out, c.Worst[org])
	}
	sort.Float64s(out)
	return out
}

// DegradedFraction reports the fraction of combinations where the
// organization's metric falls below 1.0.
func (r Fig18Result) DegradedFraction(org string, worst bool) float64 {
	if len(r.Combos) == 0 {
		return 0
	}
	n := 0
	for _, c := range r.Combos {
		v := c.Throughput[org]
		if worst {
			v = c.Worst[org]
		}
		if v < 1 {
			n++
		}
	}
	return float64(n) / float64(len(r.Combos))
}

// Render prints summary percentiles of both sorted curves.
func (r Fig18Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 18: %d multiprogrammed 4-app combinations on 32 cores\n", len(r.Combos))
	t := stats.NewTable("overall throughput speedup (percentiles of sorted curve)")
	t.Row("org", "min", "p25", "median", "p75", "max", "% degraded")
	for _, org := range r.Orgs {
		// Already ascending: PercentileSorted avoids re-copying and
		// re-sorting the curve for every percentile.
		s := r.SortedThroughput(org)
		t.Row(org,
			fmt.Sprintf("%.3f", stats.PercentileSorted(s, 0)),
			fmt.Sprintf("%.3f", stats.PercentileSorted(s, 25)),
			fmt.Sprintf("%.3f", stats.PercentileSorted(s, 50)),
			fmt.Sprintf("%.3f", stats.PercentileSorted(s, 75)),
			fmt.Sprintf("%.3f", stats.PercentileSorted(s, 100)),
			fmt.Sprintf("%.1f", 100*r.DegradedFraction(org, false)))
	}
	b.WriteString(t.String())
	b.WriteByte('\n')
	t2 := stats.NewTable("minimum achieved (worst-app) speedup")
	t2.Row("org", "min", "p25", "median", "p75", "max", "% degraded")
	for _, org := range r.Orgs {
		s := r.SortedWorst(org)
		t2.Row(org,
			fmt.Sprintf("%.3f", stats.PercentileSorted(s, 0)),
			fmt.Sprintf("%.3f", stats.PercentileSorted(s, 25)),
			fmt.Sprintf("%.3f", stats.PercentileSorted(s, 50)),
			fmt.Sprintf("%.3f", stats.PercentileSorted(s, 75)),
			fmt.Sprintf("%.3f", stats.PercentileSorted(s, 100)),
			fmt.Sprintf("%.1f", 100*r.DegradedFraction(org, true)))
	}
	b.WriteString(t2.String())
	return b.String()
}
