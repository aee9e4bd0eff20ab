package experiments

import (
	"fmt"

	"nocstar/internal/engine"
	"nocstar/internal/noc"
	"nocstar/internal/runner"
	"nocstar/internal/stats"
)

// ---------------------------------------------------------------------
// Fig. 11(c) — synthetic uniform-random traffic on a 64-node NOCSTAR
// fabric: average message latency and fraction of contention-free path
// setups versus injection rate, against the multi-hop-mesh reference.

// Fig11cResult holds the injection sweep.
type Fig11cResult struct {
	Rates        []float64
	NocstarLat   []float64 // average setup+traversal cycles
	NoContention []float64 // fraction granted first try
	MeshLat      []float64 // contention-free multi-hop mesh reference
}

// Fig11cPoint runs one injection rate on an n-node fabric for the given
// number of cycles. rate is the per-node probability of injecting a
// message each cycle (the paper sweeps 0.01-0.4; 0.1 means one message
// every 10 cycles per core, already "high for TLB traffic").
func Fig11cPoint(n int, rate float64, cycles uint64, seed int64) (avgLat, noContention float64) {
	eng := engine.New()
	geo := noc.GridFor(n)
	in := &injector{
		eng:    eng,
		fabric: noc.NewNocstar(eng, noc.NocstarConfig{Geometry: geo, HPCmax: 16}),
		rng:    engine.NewRand(seed),
		nodes:  geo.Nodes(),
		rate:   rate,
		cycles: cycles,
	}
	eng.ScheduleAct(1, in, 0, nil)
	eng.Run()

	st := in.fabric.Stats()
	return st.AvgNetworkLatency(), st.NoContentionFraction()
}

// injector offers Fig. 11(c)'s uniform-random traffic: once per cycle
// until the cycle budget runs out, each node requests a path to a random
// other node with probability rate. Grants carry no continuation.
type injector struct {
	eng    *engine.Engine
	fabric *noc.Nocstar
	rng    *engine.Rand
	nodes  int
	rate   float64
	cycles uint64
}

// Act is one cycle's injection.
func (in *injector) Act(uint8, any) {
	if uint64(in.eng.Now()) >= in.cycles {
		return
	}
	for node := 0; node < in.nodes; node++ {
		if in.rng.Float64() >= in.rate {
			continue
		}
		src := noc.NodeID(node)
		dst := noc.NodeID(in.rng.Intn(in.nodes - 1))
		if dst >= src {
			dst++
		}
		in.fabric.RequestPathTo(src, dst, in.fabric.HoldCyclesOneWay(src, dst), in, 0, nil)
	}
	in.eng.ScheduleAct(1, in, 0, nil)
}

// PathGranted ignores the grant: only the fabric's statistics matter.
func (in *injector) PathGranted(uint8, any, int) {}

// Fig11c sweeps injection rates on the 64-node system.
func Fig11c(o Options) Fig11cResult {
	res := Fig11cResult{}
	geo := noc.GridFor(64)
	meshAvg := 0.0
	{
		// Contention-free mesh average over uniform pairs.
		total, cnt := 0, 0
		for s := 0; s < geo.Nodes(); s++ {
			for d := 0; d < geo.Nodes(); d++ {
				if s == d {
					continue
				}
				total += noc.MeshLatency(geo.Hops(noc.NodeID(s), noc.NodeID(d)))
				cnt++
			}
		}
		meshAvg = float64(total) / float64(cnt)
	}
	cycles := o.Instr / 5
	if cycles < 2000 {
		cycles = 2000
	}
	// Each injection-rate point is an independent fabric simulation; fan
	// them out on the pool and join in rate order.
	rates := []float64{0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}
	type point struct{ lat, free float64 }
	points := runner.Map(o.pool(), rates, func(rate float64) point {
		lat, free := Fig11cPoint(64, rate, cycles, o.Seed)
		return point{lat, free}
	})
	for i, rate := range rates {
		res.Rates = append(res.Rates, rate)
		res.NocstarLat = append(res.NocstarLat, points[i].lat)
		res.NoContention = append(res.NoContention, 100*points[i].free)
		res.MeshLat = append(res.MeshLat, meshAvg)
	}
	return res
}

// Render prints the sweep.
func (r Fig11cResult) Render() string {
	t := stats.NewTable("Fig. 11(c): NOCSTAR latency vs injection rate (64 nodes, uniform random)")
	t.Row("injection", "NOCSTAR avg lat", "% no contention", "multi-hop mesh")
	for i, rate := range r.Rates {
		t.Row(fmt.Sprintf("%.2f", rate),
			fmt.Sprintf("%.2f", r.NocstarLat[i]),
			fmt.Sprintf("%.1f", r.NoContention[i]),
			fmt.Sprintf("%.1f", r.MeshLat[i]))
	}
	return t.String()
}
