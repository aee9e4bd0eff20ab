// Package system assembles the full simulated machine of the paper: tiled
// Haswell-class cores with per-page-size L1 TLBs, one of the last-level
// TLB organizations of Fig. 1 (private, monolithic banked, distributed,
// or NOCSTAR), the interconnect connecting them, per-core page-table
// walkers over a real cache hierarchy, transparent superpages, shootdown
// invalidation leaders, prefetching and SMT — and a cycle-level timing
// model of the address-translation path that produces the runtime,
// energy, and contention statistics every figure of the evaluation plots.
package system

import (
	"fmt"

	"nocstar/internal/check"
	"nocstar/internal/noc"
	"nocstar/internal/ptw"
	"nocstar/internal/workload"
)

// Org selects the last-level TLB organization (Fig. 1 plus the idealized
// references used in Figs. 4, 12 and 15).
type Org int

const (
	// Private is the baseline: a per-core private L2 TLB (Fig. 1a).
	Private Org = iota
	// MonolithicMesh is the banked monolithic shared L2 TLB at one end of
	// the chip, reached over a multi-hop mesh (Fig. 1c).
	MonolithicMesh
	// MonolithicSMART is the monolithic organization over a SMART NoC.
	MonolithicSMART
	// MonolithicFixed is the Fig. 4 abstraction: a banked monolithic
	// shared TLB whose total access latency is forced to a constant.
	MonolithicFixed
	// DistributedMesh is per-core shared slices over a multi-hop mesh
	// (Fig. 1d with a conventional NoC).
	DistributedMesh
	// Nocstar is the paper's design: distributed slices over the
	// latchless circuit-switched single-cycle fabric.
	Nocstar
	// NocstarIdeal is NOCSTAR with a contention-free fabric (Fig. 15's
	// "NOCSTAR (ideal)").
	NocstarIdeal
	// IdealShared is the zero-interconnect-latency shared TLB reference:
	// only slice port contention and SRAM latency remain.
	IdealShared
)

// String implements fmt.Stringer.
func (o Org) String() string {
	switch o {
	case Private:
		return "private"
	case MonolithicMesh:
		return "monolithic(mesh)"
	case MonolithicSMART:
		return "monolithic(SMART)"
	case MonolithicFixed:
		return "monolithic(fixed)"
	case DistributedMesh:
		return "distributed"
	case Nocstar:
		return "nocstar"
	case NocstarIdeal:
		return "nocstar(ideal)"
	case IdealShared:
		return "ideal"
	}
	return fmt.Sprintf("Org(%d)", int(o))
}

// IsShared reports whether the organization shares L2 TLB capacity
// between cores.
func (o Org) IsShared() bool { return o != Private }

// monolithic reports whether the organization is the banked monolithic
// shared L2 TLB (Fig. 1c) under any of its interconnects.
func (o Org) monolithic() bool {
	return o == MonolithicMesh || o == MonolithicSMART || o == MonolithicFixed
}

// sliced reports whether the organization is a shared L2 TLB split into
// one slice per tile: distributed, ideal or NOCSTAR.
func (o Org) sliced() bool { return o.IsShared() && !o.monolithic() }

// l2EntriesPerCore is the L2 TLB capacity per core: the private L2 TLB,
// the core's share of the monolithic array, or its slice. NOCSTAR slices
// hold 920 entries for the paper's area normalization (Table II); every
// other organization holds 1024.
func (o Org) l2EntriesPerCore() int {
	if o == Nocstar || o == NocstarIdeal {
		return 920
	}
	return 1024
}

// l2Ways is the associativity of every L2 TLB array.
const l2Ways = 8

// WalkPolicy selects where a page walk triggered by a shared-slice miss
// executes (Section III-F, Fig. 17).
type WalkPolicy int

const (
	// WalkAtRequester sends a miss message back to the requesting core,
	// which walks and then sends an insert message to the remote slice.
	WalkAtRequester WalkPolicy = iota
	// WalkAtRemote walks at the core owning the slice, polluting its
	// caches but saving the miss message.
	WalkAtRemote
)

// String implements fmt.Stringer.
func (p WalkPolicy) String() string {
	if p == WalkAtRemote {
		return "remote"
	}
	return "request"
}

// HammerNone disables App.HammerSlice redirection: the app's L2
// accesses spread across slices by address as usual. It replaces the
// bare -1 sentinel the call sites used to spell out.
const HammerNone = -1

// App is one application in the (possibly multiprogrammed) workload mix.
type App struct {
	Spec    workload.Spec
	Threads int
	// HammerSlice, when >= 0, redirects every L2 access of this app to
	// that slice — the Section V "TLB slice microbenchmark". HammerNone
	// (the usual setting) disables the redirection.
	HammerSlice int
	// Streams, when non-nil, supplies each thread's address stream
	// (e.g. a trace replayer) instead of the live synthetic generator.
	// Its length must equal Threads.
	Streams []workload.Stream
}

// StormConfig enables the Section V TLB-storm microbenchmark co-run: a
// process that context-switches rapidly (full shared-TLB flushes on x86)
// and continuously promotes 4 KB pages to 2 MB superpages and breaks them
// apart again (512-entry invalidation bursts).
type StormConfig struct {
	// ContextSwitchInterval is the cycles between context switches. The
	// paper studies an unrealistically aggressive 0.5 ms (1M cycles at
	// 2 GHz), scaled to the simulated window.
	ContextSwitchInterval uint64
	// PromoteDemoteInterval is the cycles between superpage promote or
	// demote operations, each generating a shootdown burst.
	PromoteDemoteInterval uint64
	// Pages is the storm process's own footprint in 4 KB pages.
	Pages uint64
}

// Config describes one simulated machine and run.
type Config struct {
	Org   Org
	Cores int
	// SMT is hyperthreads per core (Table III; default 1).
	SMT int
	// L1Scale scales the per-core L1 TLB sizes (Fig. 6's 0.5x and 1.5x).
	L1Scale float64
	// FixedAccessLatency forces the MonolithicFixed total access latency.
	FixedAccessLatency int
	// HPCmax bounds hops per cycle on the NOCSTAR fabric (default 16).
	HPCmax int
	// Acquire selects one-way vs round-trip link reservation.
	Acquire noc.AcquireMode
	// PTW configures the page-table walkers.
	PTW ptw.Config
	// Policy selects where shared-slice-miss walks run.
	Policy WalkPolicy
	// PrefetchDegree inserts translations for vpn±1..±k on every walk
	// (Table III; 0 disables).
	PrefetchDegree int
	// InvLeaders is the number of shootdown invalidation leaders
	// (Section III-G). 0 means every core relays its own invalidations.
	InvLeaders int
	// THP backs each region's SuperpageFrac with transparent 2 MB pages.
	THP bool
	// NoSpeculativeResponse disables the Fig. 10 optimization of setting
	// up the response path during the slice lookup, for ablation.
	NoSpeculativeResponse bool
	// Apps is the workload mix; a single-entry mix is a multithreaded run.
	Apps []App
	// InstrPerThread is the instruction budget simulated per thread.
	InstrPerThread uint64
	// ShootdownInterval, when nonzero, remaps a random page every N
	// cycles, generating steady shootdown traffic (Fig. 16 right).
	ShootdownInterval uint64
	// Storm optionally enables the TLB-storm co-run.
	Storm *StormConfig
	// Check, when non-nil, attaches the differential-oracle and
	// invariant checker (internal/check) to the run: every served
	// translation is verified against the page table, NOCSTAR circuit
	// reservations are shadowed, and timing horizons are asserted
	// monotone. One Checker serves exactly one run. Nil (the default)
	// keeps the translation critical path allocation-free; the runner
	// never dedups or memoizes checked configs.
	Check *check.Checker
	// Seed drives all pseudo-randomness; equal seeds replay identically.
	Seed int64
}

// Normalized validates (Validate) and fills defaults, returning the
// effective config. All rejection happens up front in Validate with
// typed field errors; the default-filling below cannot fail.
func (c Config) Normalized() (Config, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.SMT <= 0 {
		c.SMT = 1
	}
	if c.L1Scale <= 0 {
		c.L1Scale = 1
	}
	if c.HPCmax <= 0 {
		c.HPCmax = 16
	}
	if c.PTW.Mode == ptw.Variable {
		// FixedLatency means nothing here and is cleared, so configs
		// that walk alike hash alike.
		c.PTW.FixedLatency = 0
	}
	if c.InstrPerThread == 0 {
		c.InstrPerThread = 200_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}
