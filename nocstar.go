// Package nocstar is a from-scratch reproduction of "Scalable Distributed
// Last-Level TLBs Using Low-Latency Interconnects" (Bharadwaj, Cox,
// Krishna, Bhattacharjee — MICRO 2018).
//
// NOCSTAR organizes a shared last-level TLB as per-core slices connected
// by a latchless, circuit-switched interconnect with near single-cycle
// traversal, combining the hit rates of shared TLBs with the access
// latency of private ones. This package exposes the cycle-level simulator
// of the full design space — private, monolithic-banked, distributed-mesh
// and NOCSTAR last-level TLBs over Haswell-class cores with transparent
// superpages, page-table walkers, shootdowns, prefetching and SMT — plus
// the synthetic workload suite and the drivers that regenerate every
// table and figure of the paper's evaluation.
//
// Quick start:
//
//	spec, _ := nocstar.WorkloadByName("canneal")
//	baseline, _ := nocstar.Run(nocstar.Config{
//		Org:   nocstar.Private,
//		Cores: 16,
//		Apps:  []nocstar.App{{Spec: spec, Threads: 16, HammerSlice: nocstar.HammerNone}},
//	})
//	result, _ := nocstar.Run(nocstar.Config{
//		Org:   nocstar.Nocstar,
//		Cores: 16,
//		Apps:  []nocstar.App{{Spec: spec, Threads: 16, HammerSlice: nocstar.HammerNone}},
//	})
//	fmt.Printf("speedup: %.2fx\n", result.SpeedupOver(baseline))
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package nocstar

import (
	"context"
	"io"

	"nocstar/internal/experiments"
	"nocstar/internal/system"
	"nocstar/internal/trace"
	"nocstar/internal/vm"
	"nocstar/internal/workload"
)

// Config describes one simulated machine and run.
type Config = system.Config

// App is one application of a (possibly multiprogrammed) workload mix.
type App = system.App

// Result is the outcome of a run.
type Result = system.Result

// AppResult is one application's outcome within a run.
type AppResult = system.AppResult

// Org selects the last-level TLB organization.
type Org = system.Org

// Last-level TLB organizations (Fig. 1 of the paper, plus the idealized
// references its evaluation compares against).
const (
	// Private is the baseline per-core private L2 TLB.
	Private = system.Private
	// MonolithicMesh is the banked monolithic shared TLB over a mesh.
	MonolithicMesh = system.MonolithicMesh
	// MonolithicSMART is the monolithic organization over a SMART NoC.
	MonolithicSMART = system.MonolithicSMART
	// MonolithicFixed forces a flat total access latency (Fig. 4).
	MonolithicFixed = system.MonolithicFixed
	// DistributedMesh is per-core shared slices over a multi-hop mesh.
	DistributedMesh = system.DistributedMesh
	// Nocstar is the paper's design: slices over the circuit-switched
	// single-cycle fabric.
	Nocstar = system.Nocstar
	// NocstarIdeal is NOCSTAR with a contention-free fabric.
	NocstarIdeal = system.NocstarIdeal
	// IdealShared is the zero-interconnect-latency shared reference.
	IdealShared = system.IdealShared
)

// WalkPolicy selects where shared-slice-miss page walks execute.
type WalkPolicy = system.WalkPolicy

// Walk placement policies (Section III-F).
const (
	WalkAtRequester = system.WalkAtRequester
	WalkAtRemote    = system.WalkAtRemote
)

// StormConfig enables the Section V TLB-storm microbenchmark co-run.
type StormConfig = system.StormConfig

// HammerNone disables App.HammerSlice redirection (the usual setting).
const HammerNone = system.HammerNone

// FieldError names one invalid Config field (see Config.Validate).
type FieldError = system.FieldError

// ValidationError is the typed list of everything wrong with a Config,
// returned by Config.Validate.
type ValidationError = system.ValidationError

// ConfigSchemaVersion identifies the canonical Config JSON layout
// produced by Config.MarshalCanonical and accepted by UnmarshalConfig.
const ConfigSchemaVersion = system.ConfigSchemaVersion

// Typed run-termination errors returned by RunContext.
var (
	ErrCanceled         = system.ErrCanceled
	ErrDeadlineExceeded = system.ErrDeadlineExceeded
)

// WorkloadSpec is the generative model of one benchmark.
type WorkloadSpec = workload.Spec

// Run executes one configured simulation to completion.
func Run(cfg Config) (Result, error) { return system.Run(cfg) }

// RunContext is Run under a context: cancellation is polled on a coarse
// simulated-cycle stride (preserving the allocation-free critical
// path), and a canceled or deadlined run returns an error matching
// ErrCanceled or ErrDeadlineExceeded.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	return system.RunContext(ctx, cfg)
}

// UnmarshalConfig decodes a JSON config document (the canonical
// encoding Config.MarshalCanonical produces, or hand-written input with
// suite-workload shorthand), rejecting unknown fields.
func UnmarshalConfig(data []byte) (Config, error) { return system.UnmarshalConfig(data) }

// Workloads returns the paper's eleven evaluation workloads.
func Workloads() []WorkloadSpec { return workload.Suite() }

// WorkloadByName finds a suite workload.
func WorkloadByName(name string) (WorkloadSpec, bool) { return workload.ByName(name) }

// UniformWorkload builds a uniform-random microbenchmark workload.
func UniformWorkload(name string, pages uint64) WorkloadSpec {
	return workload.Uniform(name, pages)
}

// Stream is a per-thread source of virtual-address references; synthetic
// generators and trace replayers both implement it, and so can a type
// outside this module: NextBatch(buf []VirtAddr) fills buf with the
// stream's next len(buf) references.
type Stream = workload.Stream

// VirtAddr is a virtual byte address, the element type of a Stream's
// batches.
type VirtAddr = vm.VirtAddr

// Trace is a captured per-thread address trace.
type Trace = trace.Trace

// TraceStats summarizes a trace's TLB-relevant properties.
type TraceStats = trace.Stats

// CaptureTrace records a workload's address streams for later replay.
func CaptureTrace(spec WorkloadSpec, threads int, refsPerThread uint64, seed int64) *Trace {
	return trace.Capture(spec, threads, refsPerThread, seed)
}

// WriteTrace serializes a trace to w.
func WriteTrace(w io.Writer, t *Trace) error { return trace.Write(w, t) }

// ReadTrace deserializes a trace from r.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// AnalyzeTrace computes a trace's summary statistics.
func AnalyzeTrace(t *Trace) TraceStats { return trace.Analyze(t) }

// ExperimentOptions tune the scale of the paper-reproduction experiments.
type ExperimentOptions = experiments.Options

// Experiment describes one runnable table/figure reproduction.
type Experiment = experiments.Entry

// Experiments lists every reproducible table and figure by ID.
func Experiments() []Experiment { return experiments.Registry() }

// RunExperiment regenerates one table or figure and returns its rendered
// rows. Every run is memoized for the life of the process, so a
// configuration an earlier call already ran is not run again, and the
// process holds every result it has produced.
func RunExperiment(id string, opts ExperimentOptions) (string, error) {
	e, err := experiments.Lookup(id)
	if err != nil {
		return "", err
	}
	return e.Run(opts).Render(), nil
}

// DefaultExperimentOptions returns the scale used for EXPERIMENTS.md.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }
