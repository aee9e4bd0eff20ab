package experiments

import (
	"fmt"
	"strings"

	"nocstar/internal/energy"
	"nocstar/internal/noc"
	"nocstar/internal/sram"
	"nocstar/internal/stats"
)

// ---------------------------------------------------------------------
// Fig. 3 — SRAM TLB access latency vs array size.

// Fig3Result holds the latency curve.
type Fig3Result struct {
	Multipliers []float64
	Cycles      []int
}

// Fig3 reproduces the post-synthesis latency curve.
func Fig3() Fig3Result {
	res := Fig3Result{}
	for _, m := range []float64{0.5, 1, 2, 4, 8, 16, 32, 64} {
		res.Multipliers = append(res.Multipliers, m)
		res.Cycles = append(res.Cycles, sram.AccessCycles(int(m*sram.ReferenceEntries)))
	}
	return res
}

// Render prints the curve.
func (r Fig3Result) Render() string {
	t := stats.NewTable("Fig. 3: SRAM TLB access latency vs size (1x = 1536 entries)")
	t.Row("size", "cycles")
	for i, m := range r.Multipliers {
		t.Row(fmt.Sprintf("%gx", m), r.Cycles[i])
	}
	return t.String()
}

// ---------------------------------------------------------------------
// Fig. 9 — place-and-route tile costs.

// Fig9Result holds the published tile breakdown.
type Fig9Result struct {
	Costs sram.TileCosts
}

// Fig9 returns the tile cost table.
func Fig9() Fig9Result { return Fig9Result{Costs: sram.Fig9()} }

// Render prints the per-tile power/area rows of Fig. 9.
func (r Fig9Result) Render() string {
	t := stats.NewTable("Fig. 9: per-tile power and area (28nm TSMC, 0.5ns clock)")
	t.Row("component", "power (mW)", "area (mm^2)")
	t.Row("Switch", r.Costs.SwitchPowerMW, r.Costs.SwitchAreaMM2)
	t.Row("4x Arbiters", r.Costs.ArbiterPowerMW, r.Costs.ArbiterAreaMM2)
	t.Row("SRAM TLB", r.Costs.SRAMPowerMW, r.Costs.SRAMAreaMM2)
	sw, both := r.Costs.InterconnectAreaFraction()
	return t.String() + fmt.Sprintf("switch area / SRAM area = %.2f%%; switch+arbiters = %.2f%%\n",
		100*sw, 100*both)
}

// ---------------------------------------------------------------------
// Fig. 11(a) — message latency vs hops for the shared TLB designs.

// Fig11aResult holds per-design latency-vs-hops series.
type Fig11aResult struct {
	Hops    []int
	Designs []string
	Latency map[string][]int
}

// Fig11a computes total access latency (SRAM lookup + network) per hop
// count for the monolithic, distributed, and NOCSTAR (HPCmax 4/8/16)
// designs at the 32-core scale.
func Fig11a() Fig11aResult {
	res := Fig11aResult{
		Hops:    []int{0, 1, 2, 4, 6, 8, 10, 12},
		Latency: map[string][]int{},
	}
	sliceSRAM := sram.AccessCycles(1024)
	monoSRAM := sram.AccessCycles(32 * 1024)

	type design struct {
		name string
		f    func(h int) int
	}
	designs := []design{
		{"Monolithic", func(h int) int { return monoSRAM + noc.MeshLatency(h) }},
		{"Distributed", func(h int) int { return sliceSRAM + noc.MeshLatency(h) }},
	}
	for _, hpc := range []int{4, 8, 16} {
		ns := noc.NewNocstar(nil, noc.NocstarConfig{Geometry: noc.GridFor(32), HPCmax: hpc})
		designs = append(designs, design{fmt.Sprintf("NOCSTAR-HPC%d", hpc), func(h int) int {
			if h == 0 {
				return sliceSRAM
			}
			return sliceSRAM + 1 + ns.TraversalCycles(h) // setup + traversal
		}})
	}
	for _, d := range designs {
		series := make([]int, 0, len(res.Hops))
		for _, h := range res.Hops {
			series = append(series, d.f(h))
		}
		res.Designs = append(res.Designs, d.name)
		res.Latency[d.name] = series
	}
	return res
}

// Render prints the latency series.
func (r Fig11aResult) Render() string {
	t := stats.NewTable("Fig. 11(a): access latency (cycles) vs hops")
	header := []interface{}{"design"}
	for _, h := range r.Hops {
		header = append(header, fmt.Sprintf("h=%d", h))
	}
	t.Row(header...)
	for _, d := range r.Designs {
		row := []interface{}{d}
		for _, v := range r.Latency[d] {
			row = append(row, v)
		}
		t.Row(row...)
	}
	return t.String()
}

// ---------------------------------------------------------------------
// Fig. 11(b) — per-message energy vs hops, split into link / switch /
// control / SRAM, for (M)onolithic, (D)istributed, (N)OCSTAR.

// Fig11bResult holds the energy breakdowns.
type Fig11bResult struct {
	Hops   []int
	Energy map[string][]energy.MessageEnergy // "M"/"D"/"N"
}

// Fig11b computes the Fig. 11(b) bars at the 32-core scale.
func Fig11b() Fig11bResult {
	res := Fig11bResult{
		Hops:   []int{0, 1, 2, 4, 6, 8, 10, 12},
		Energy: map[string][]energy.MessageEnergy{},
	}
	for _, h := range res.Hops {
		res.Energy["M"] = append(res.Energy["M"], energy.MeshMessage(h, 32*1024))
		res.Energy["D"] = append(res.Energy["D"], energy.MeshMessage(h, 1024))
		res.Energy["N"] = append(res.Energy["N"], energy.NocstarMessage(h, 1024))
	}
	return res
}

// Render prints the component breakdown per design and hop count.
func (r Fig11bResult) Render() string {
	t := stats.NewTable("Fig. 11(b): per-message energy (pJ): link/switch/control/SRAM")
	t.Row("hops", "design", "link", "switch", "control", "SRAM", "total")
	for i, h := range r.Hops {
		for _, d := range []string{"M", "D", "N"} {
			e := r.Energy[d][i]
			t.Row(h, d, e.Link, e.Switch, e.Control, e.SRAM, e.Total())
		}
	}
	return t.String()
}

// ---------------------------------------------------------------------
// Table I — interconnect design space.

// Table1Result pairs numeric design points with qualitative verdicts.
type Table1Result struct {
	Points   []noc.DesignPoint
	Verdicts []noc.DesignVerdicts
}

// Table1 computes the design space for a 64-node chip.
func Table1() Table1Result {
	points := noc.DesignSpace(64)
	return Table1Result{Points: points, Verdicts: noc.Classify(points)}
}

// Render prints numeric values and the paper's qualitative marks.
func (r Table1Result) Render() string {
	var b strings.Builder
	t := stats.NewTable("Table I: TLB interconnect design choices (64 nodes)")
	t.Row("NOC", "avg latency", "bisection links", "area mm^2", "power mW",
		"Lat", "BW", "Area", "Pow")
	for i, p := range r.Points {
		v := r.Verdicts[i]
		t.Row(p.Name, fmt.Sprintf("%.1f", p.AvgLatency), p.BisectionLinks,
			fmt.Sprintf("%.2f", p.AreaMM2), fmt.Sprintf("%.0f", p.PowerMW),
			v.Latency.String(), v.Bandwidth.String(), v.Area.String(), v.Power.String())
	}
	b.WriteString(t.String())
	return b.String()
}
