package experiments

import (
	"fmt"

	"nocstar/internal/stats"
	"nocstar/internal/system"
	"nocstar/internal/workload"
)

// ---------------------------------------------------------------------
// 1024-core smoke. One gups-like high-miss workload on a 32x32 mesh of
// distributed slices, with a deliberately small per-thread instruction
// budget: over a thousand threads that still totals millions of memory
// references, enough to exercise every slice, but it completes in
// minutes rather than hours. Results are deterministic.

// smoke1024Instr caps the per-thread budget: the point of the smoke is
// breadth (1024 tiles live at once), not depth.
const smoke1024Instr = 10_000

// ScaleSmokeResult summarizes the 1024-core run.
type ScaleSmokeResult struct {
	Cores          int
	InstrPerThread uint64
	Cycles         uint64
	IPC            float64
	L1MissRate     float64
	L2MissRate     float64
	LocalFraction  float64
	Walks          uint64
	AvgNetCycles   float64
}

// Smoke1024 runs the 1024-core DistributedMesh smoke.
func Smoke1024(o Options) ScaleSmokeResult {
	const cores = 1024
	instr := o.Instr
	if instr == 0 || instr > smoke1024Instr {
		instr = smoke1024Instr
	}
	spec, ok := workload.ByName("gups")
	if !ok {
		spec = workload.Suite()[0]
	}
	cfg := o.baseConfig(system.DistributedMesh, spec, cores, false)
	cfg.InstrPerThread = instr
	r := o.submit(cfg).Wait()
	local := 0.0
	if r.L2Accesses > 0 {
		local = float64(r.LocalSlice) / float64(r.L2Accesses)
	}
	return ScaleSmokeResult{
		Cores:          cores,
		InstrPerThread: instr,
		Cycles:         r.Cycles,
		IPC:            r.IPC,
		L1MissRate:     r.L1MissRate(),
		L2MissRate:     r.L2MissRate(),
		LocalFraction:  local,
		Walks:          r.Walks,
		AvgNetCycles:   r.AvgNetCycles,
	}
}

// Render prints the smoke summary.
func (r ScaleSmokeResult) Render() string {
	t := stats.NewTable(fmt.Sprintf("%d-core DistributedMesh smoke (%d instr/thread)",
		r.Cores, r.InstrPerThread))
	t.Row("cycles", "ipc", "l1 miss", "l2 miss", "local frac", "walks", "avg net cyc")
	t.Row(r.Cycles, fmt.Sprintf("%.3f", r.IPC),
		fmt.Sprintf("%.4f", r.L1MissRate), fmt.Sprintf("%.4f", r.L2MissRate),
		fmt.Sprintf("%.3f", r.LocalFraction), r.Walks,
		fmt.Sprintf("%.1f", r.AvgNetCycles))
	return t.String()
}
