package experiments

import (
	"encoding/json"
	"io"

	"nocstar/internal/metrics"
	"nocstar/internal/noc"
	"nocstar/internal/place"
	"nocstar/internal/ptw"
	"nocstar/internal/runner"
	"nocstar/internal/system"
	"nocstar/internal/workload"
)

// ReportSchemaVersion identifies the RunReport JSON layout. Bump it on
// any breaking change to the document structure so downstream consumers
// (diff tooling, regression trackers) can refuse inputs they don't
// understand.
const ReportSchemaVersion = 1

// RunReport is the machine-readable record of one nocstar-exp
// invocation: the options it ran with, every experiment's structured
// data alongside its rendered text, and per-workload probe runs exposing
// the full metrics registry, NoC contention accounting, and energy
// breakdown. The document contains no timestamps or host state, so two
// invocations with the same options produce byte-identical reports at
// any -j.
type RunReport struct {
	Schema      int                `json:"schema"`
	Tool        string             `json:"tool"`
	Options     ReportOptions      `json:"options"`
	Experiments []ExperimentReport `json:"experiments"`
	Probes      []ProbeReport      `json:"probes"`
}

// ReportOptions echoes the Options the run used (the fields that affect
// results; Parallelism deliberately excluded — it may not change a
// number, so -j 1 and -j 4 reports are byte-identical).
type ReportOptions struct {
	Instr      uint64   `json:"instr"`
	Seed       int64    `json:"seed"`
	Workloads  []string `json:"workloads,omitempty"`
	Combos     int      `json:"combos,omitempty"`
	CoreCounts []int    `json:"core_counts,omitempty"`
	// The fabric overrides appear only when set off their defaults, so
	// reports from older invocations keep their exact bytes (additive,
	// schema stays 1).
	Topology      string `json:"topology,omitempty"`
	Placement     string `json:"placement,omitempty"`
	PlacementSeed int64  `json:"placement_seed,omitempty"`
}

// RanExperiment pairs an executed experiment with its result.
type RanExperiment struct {
	ID          string
	Description string
	Result      Renderer
}

// ExperimentReport is one experiment in the report: the result struct
// marshaled as-is (its exported fields are the figure's data series) plus
// the rendered ASCII for human eyes.
type ExperimentReport struct {
	ID          string `json:"id"`
	Description string `json:"description"`
	Data        any    `json:"data"`
	Rendered    string `json:"rendered"`
}

// ProbeReport is one per-workload NOCSTAR probe run: a standard
// one-thread-per-core simulation whose full observability surface is
// exported — every registry metric, the fabric's contention/retry/release
// accounting, the walker statistics, and the energy breakdown.
type ProbeReport struct {
	Workload         string           `json:"workload"`
	Org              string           `json:"org"`
	Cores            int              `json:"cores"`
	Cycles           uint64           `json:"cycles"`
	Instructions     uint64           `json:"instructions"`
	IPC              float64          `json:"ipc"`
	SpeedupVsPrivate float64          `json:"speedup_vs_private"`
	L1MissRate       float64          `json:"l1_miss_rate"`
	L2MissRate       float64          `json:"l2_miss_rate"`
	Metrics          metrics.Snapshot `json:"metrics"`
	Noc              NocReport        `json:"noc"`
	Energy           EnergyReport     `json:"energy"`
	PTW              ptw.Stats        `json:"ptw"`
}

// NocReport flattens the NOCSTAR fabric statistics with their derived
// ratios.
type NocReport struct {
	Messages             uint64  `json:"messages"`
	SetupAttempts        uint64  `json:"setup_attempts"`
	FirstTryGrants       uint64  `json:"first_try_grants"`
	Retries              uint64  `json:"retries"`
	Releases             uint64  `json:"releases"`
	ReleasedLinks        uint64  `json:"released_links"`
	ForeignLinks         uint64  `json:"foreign_links"`
	AvgSetupCycles       float64 `json:"avg_setup_cycles"`
	NoContentionFraction float64 `json:"no_contention_fraction"`
	AvgNetworkLatency    float64 `json:"avg_network_latency"`
}

// EnergyReport is the run's address-translation energy breakdown in pJ.
type EnergyReport struct {
	L1TLBPJ   float64 `json:"l1_tlb_pj"`
	L2TLBPJ   float64 `json:"l2_tlb_pj"`
	NetworkPJ float64 `json:"network_pj"`
	WalkPJ    float64 `json:"walk_pj"`
	StaticPJ  float64 `json:"static_pj"`
	TotalPJ   float64 `json:"total_pj"`
}

// BuildReport assembles the report for one invocation: the experiments
// that ran, plus one NOCSTAR probe (and its memoized private baseline)
// per selected workload at the smallest configured core count. Probe runs
// go through the shared pool, so they execute concurrently and dedupe
// against runs the experiments already performed.
func BuildReport(o Options, ran []RanExperiment) *RunReport {
	rep := &RunReport{
		Schema: ReportSchemaVersion,
		Tool:   "nocstar-exp",
		Options: ReportOptions{
			Instr:      o.Instr,
			Seed:       o.Seed,
			Workloads:  o.Workloads,
			Combos:     o.Combos,
			CoreCounts: o.CoreCounts,
		},
		Experiments: []ExperimentReport{},
		Probes:      []ProbeReport{},
	}
	if o.Topology != noc.TopoMesh {
		rep.Options.Topology = o.Topology.String()
	}
	if o.Placement != place.RowMajor {
		rep.Options.Placement = o.Placement.String()
		rep.Options.PlacementSeed = o.PlacementSeed
	}
	for _, e := range ran {
		rep.Experiments = append(rep.Experiments, ExperimentReport{
			ID:          e.ID,
			Description: e.Description,
			Data:        e.Result,
			Rendered:    e.Result.Render(),
		})
	}

	cores := o.coreCounts()[0]
	type probeRuns struct {
		spec      workload.Spec
		noc, base *runner.Future
	}
	var probes []probeRuns
	for _, spec := range o.suite() {
		probes = append(probes, probeRuns{
			spec: spec,
			noc:  o.submit(o.baseConfig(system.Nocstar, spec, cores, false)),
			base: o.baselineFuture(spec, cores, false),
		})
	}
	for _, p := range probes {
		res := p.noc.Wait()
		base := p.base.Wait()
		ns := res.Noc
		pr := ProbeReport{
			Workload:         p.spec.Name,
			Org:              "nocstar",
			Cores:            cores,
			Cycles:           res.Cycles,
			Instructions:     res.Instructions,
			IPC:              res.IPC,
			SpeedupVsPrivate: res.SpeedupOver(base),
			L1MissRate:       res.L1MissRate(),
			L2MissRate:       res.L2MissRate(),
			Metrics:          res.Metrics,
			Noc: NocReport{
				Messages:             ns.Messages,
				SetupAttempts:        ns.SetupAttempts,
				FirstTryGrants:       ns.FirstTryGrants,
				Retries:              ns.Retries,
				Releases:             ns.Releases,
				ReleasedLinks:        ns.ReleasedLinks,
				ForeignLinks:         ns.ForeignLinks,
				AvgSetupCycles:       ns.AvgSetupCycles(),
				NoContentionFraction: ns.NoContentionFraction(),
				AvgNetworkLatency:    ns.AvgNetworkLatency(),
			},
			Energy: EnergyReport{
				L1TLBPJ:   res.Energy.L1TLBPJ,
				L2TLBPJ:   res.Energy.L2TLBPJ,
				NetworkPJ: res.Energy.NetworkPJ,
				WalkPJ:    res.Energy.WalkPJ,
				StaticPJ:  res.Energy.StaticPJ,
				TotalPJ:   res.Energy.TotalPJ(),
			},
			PTW: res.PTW,
		}
		rep.Probes = append(rep.Probes, pr)
	}
	return rep
}

// WriteJSON writes the report as indented, key-stable JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
