package system

import (
	"fmt"
	"strings"

	"nocstar/internal/noc"
	"nocstar/internal/ptw"
	"nocstar/internal/vm"
	"nocstar/internal/workload"
)

// FieldError names one invalid Config field. Field uses Go selector
// syntax rooted at Config ("Cores", "Apps[1].Threads", "PTW.FixedLatency")
// so API clients can map it back onto the document they submitted.
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"msg"`
}

// Error implements error.
func (e FieldError) Error() string { return e.Field + ": " + e.Msg }

// ValidationError is the typed list of everything wrong with a Config.
// Validate gathers every failure instead of stopping at the first, so a
// caller fixing a rejected config sees the full damage at once; the HTTP
// service layer maps it onto a 400 response with per-field messages.
type ValidationError struct {
	Fields []FieldError `json:"fields"`
}

// Error implements error.
func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	return "system: invalid config: " + strings.Join(msgs, "; ")
}

// maxCores bounds Config.Cores. Simulator memory grows with the core
// count (a 1024-core run holds roughly half a gigabyte), so an unbounded
// count from an untrusted config could exhaust the host. The limit sits
// above every core count any experiment uses.
const maxCores = 4096

// maxInstr bounds Config.InstrPerThread. No budget near it can finish:
// the engine stops every run at maxCycles (2·10⁹), and a thread retires
// nowhere near 2000 instructions a cycle.
// A larger budget would only hold a worker until that safety net or a
// deadline fires, and keeping budgets small keeps the quantities derived
// from them (references per thread, retired-instruction totals) far from
// the float64 and uint64 limits. The limit sits above every budget in
// use, including the 2^40 that the serve tests submit as a run only
// cancellation ends.
const maxInstr uint64 = 1 << 42

// The bounds below keep what New allocates from one untrusted config
// finite and the sizes it derives from overflowing int. Each limit sits
// well above every value an experiment, example or benchmark uses, and
// each is derived from the memory that field makes New allocate on a
// maxCores (4096-core) machine.
const (
	// maxSMT bounds Config.SMT. Each hardware thread owns a 2 KiB
	// reference buffer (threadBatchSize 8-byte addresses), so
	// maxCores x 8 threads hold 64 MiB of buffers. The paper's cores
	// run 2-way SMT.
	maxSMT = 8
	// maxThreads bounds App.Threads: no valid machine has more hardware
	// threads than maxCores x maxSMT (32768). Bounding every term keeps
	// the thread sum in Validate far from int overflow.
	maxThreads = maxCores * maxSMT
	// maxL1Scale bounds Config.L1Scale. The default L1 TLBs hold 100
	// entries; 16x is 1600 entries of 24 bytes (packed key, frame and LRU
	// tick), 38 KiB per core, 150 MiB on maxCores. Fig. 6 scales by 0.5x
	// and 1.5x.
	maxL1Scale = 16.0
	// maxStormPages bounds Storm.Pages. The storm keeps one bool of
	// promotion state per 2 MB region (512 pages), so 2^30 pages cost a
	// 2 MiB bitmap, and its regions end 2^42 bytes past the storm's base,
	// far below the TLB keys' VPN field. The storm experiments use 4096.
	maxStormPages = 1 << 30
)

// The bounds below keep every accepted config finishing in bounded time.
const (
	// maxPrefetchDegree bounds PrefetchDegree. Prefetched translations
	// ride on the one 64-byte line of eight 8-byte PTEs a walk fetches,
	// so the neighbours a walk can prefetch for free lie at most 7 PTEs
	// from the walked one. The prefetch loop runs inside one event, so
	// an unbounded degree held a worker past its deadline. Table III
	// uses 0 to 3.
	maxPrefetchDegree = 7
	// maxFixedLatency bounds FixedAccessLatency and PTW.FixedLatency. A
	// cold run makes at least one L2 access and one walk per thread, and
	// a realistic one thousands; at maxCycles/1024 (about 2·10⁶ cycles)
	// a thousand serialized accesses still fit in maxCycles, where a
	// latency near maxCycles could only run into that safety net. Fig. 4
	// forces 9 to 25 cycles and Table III walks in 10 to 80.
	maxFixedLatency = int(maxCycles / 1024)
	// maxHPCmax bounds HPCmax. A NOCSTAR traversal of h hops takes
	// ceil(h/HPCmax) cycles, computed as (h+HPCmax-1)/HPCmax, so near the
	// int limit the sum overflows, the traversal comes out negative and
	// the run panics scheduling an event in the past. The longest XY
	// route on a maxCores (64 x 64) mesh is 126 hops, so every HPCmax
	// from 126 up already means one cycle; 2^20 is the value the HPCmax
	// ablation uses as "unbounded". The paper's fabric covers 16 hops.
	maxHPCmax = 1 << 20
)

// A thread advances its clock by BaseCPI/MemRefPerInstr cycles per
// reference and issues InstrPerThread x MemRefPerInstr references. The
// bounds below keep those finite and in range: the per-reference cost
// lies in [2^-16, 2^20] cycles, so each maxRefsPerSlice (2^16) slice of
// references advances the clock by at least one cycle and yields to the
// engine (and to cancellation), and no single reference jumps past
// maxCycles (about 2^31); and at most 2^42 x 2^8 = 2^50 references are
// counted exactly in a float64. The suite issues 0.28 to 0.40
// references per instruction at a CPI of 1.0 to 1.3.
const (
	minMemRefPerInstr = 1.0 / (1 << 10)
	maxMemRefPerInstr = 1 << 8
	minBaseCPI        = 1.0 / (1 << 8)
	maxBaseCPI        = 1 << 10
)

// minDisturbInterval bounds ShootdownInterval, Storm.ContextSwitchInterval
// and Storm.PromoteDemoteInterval from below; 0 still turns each off.
// Every disturbance charges shared-structure ports: a single-page
// shootdown charges its home slice or bank one port cycle per relaying
// sender (every core, without invalidation leaders), and a context switch
// charges every port 4 cycles. Disturbances that arrive faster than the
// ports drain push the port horizons out without bound, so the threads
// never finish and the run holds its worker until maxCycles or its
// deadline; a shootdown every cycle did exactly that. With the banking New
// derives (8 banks from 64 cores up) a maxCores machine relays 4096 / 8 =
// 512 messages per shootdown to each bank on average, so from 512 cycles
// up the shootdown stream alone asks no bank for more than one port cycle
// per cycle. A port with more senders per shootdown can still saturate;
// maxCycles and the run's deadline bound those.
// Every experiment, example, benchmark and test uses 1000 cycles or more.
const minDisturbInterval = 512

// maxFootprintPages bounds App.Spec.FootprintPages. Each thread's
// private arena is 2^38 bytes, 2^26 4 KiB slots, and a region scatters
// its touched pages over SpreadFactor (64) slots each, so an arena holds
// 2^20 touched pages. With SharedFrac 0 and one thread, the private
// region is the whole footprint (less the one-page shared floor), so a
// larger footprint runs into the next arena and, past 2^39 pages, out of
// the TLB keys' VPN field. The suite's largest footprint is gups' 90 000
// pages. Below 1 page, the private size underflows through
// FootprintPages - shared.
const maxFootprintPages = (1 << 38) / vm.FrameSize / workload.SpreadFactor

// Validate checks cfg without running it, returning nil or a
// *ValidationError listing every invalid field. Zero values that
// Normalized fills with defaults (SMT, L1Scale, HPCmax, ...) are valid;
// negative values, unknown enum values, impossible thread placements and
// missing required fields are not. Run and New validate implicitly —
// this is the front door for callers (drivers, the HTTP service) that
// want typed, field-level errors before committing to a simulation.
func (c Config) Validate() error {
	var fields []FieldError
	add := func(field, format string, args ...any) {
		fields = append(fields, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}

	if c.Org < Private || c.Org > IdealShared {
		add("Org", "unknown organization %d", int(c.Org))
	}
	switch {
	case c.Cores <= 0:
		add("Cores", "must be positive, got %d", c.Cores)
	case c.Cores > maxCores:
		add("Cores", "must be at most %d, got %d", maxCores, c.Cores)
	}
	switch {
	case c.SMT < 0:
		add("SMT", "must be 0 (default 1) or positive, got %d", c.SMT)
	case c.SMT > maxSMT:
		add("SMT", "must be at most %d, got %d", maxSMT, c.SMT)
	}
	switch {
	case c.L1Scale < 0:
		add("L1Scale", "must be 0 (default 1.0) or positive, got %g", c.L1Scale)
	case !(c.L1Scale <= maxL1Scale): // also rejects NaN
		add("L1Scale", "must be at most %g, got %g", maxL1Scale, c.L1Scale)
	}
	switch {
	case c.FixedAccessLatency < 0:
		add("FixedAccessLatency", "must not be negative, got %d", c.FixedAccessLatency)
	case c.FixedAccessLatency > maxFixedLatency:
		add("FixedAccessLatency", "must be at most %d cycles, got %d", maxFixedLatency, c.FixedAccessLatency)
	}
	if c.Org == MonolithicFixed && c.FixedAccessLatency <= 0 {
		add("FixedAccessLatency", "required for the monolithic(fixed) organization")
	}
	switch {
	case c.HPCmax < 0:
		add("HPCmax", "must be 0 (default 16) or positive, got %d", c.HPCmax)
	case c.HPCmax > maxHPCmax:
		add("HPCmax", "must be at most %d, got %d", maxHPCmax, c.HPCmax)
	}
	if c.Acquire != noc.OneWayAcquire && c.Acquire != noc.RoundTripAcquire {
		add("Acquire", "unknown acquire mode %d", int(c.Acquire))
	}
	switch c.PTW.Mode {
	case ptw.Variable:
	case ptw.Fixed:
		if c.PTW.FixedLatency <= 0 {
			add("PTW.FixedLatency", "fixed PTW mode requires a positive latency, got %d", c.PTW.FixedLatency)
		}
	default:
		add("PTW.Mode", "unknown walk mode %d", int(c.PTW.Mode))
	}
	switch {
	case c.PTW.FixedLatency < 0 && c.PTW.Mode != ptw.Fixed:
		add("PTW.FixedLatency", "must not be negative, got %d", c.PTW.FixedLatency)
	case c.PTW.FixedLatency > maxFixedLatency:
		add("PTW.FixedLatency", "must be at most %d cycles, got %d", maxFixedLatency, c.PTW.FixedLatency)
	}
	if c.Policy != WalkAtRequester && c.Policy != WalkAtRemote {
		add("Policy", "unknown walk policy %d", int(c.Policy))
	}
	switch {
	case c.PrefetchDegree < 0:
		add("PrefetchDegree", "must not be negative, got %d", c.PrefetchDegree)
	case c.PrefetchDegree > maxPrefetchDegree:
		add("PrefetchDegree", "must be at most %d, got %d", maxPrefetchDegree, c.PrefetchDegree)
	}
	// Every core can lead at most itself: from Cores leaders up, every
	// core relays its own invalidations, as with 0 leaders, so a larger
	// count names no further configuration. The Fig. 16 sweep uses
	// Cores/8 and Cores/4.
	switch {
	case c.InvLeaders < 0:
		add("InvLeaders", "must not be negative, got %d", c.InvLeaders)
	case c.Cores > 0 && c.InvLeaders > c.Cores:
		add("InvLeaders", "must be at most Cores (%d), got %d", c.Cores, c.InvLeaders)
	}
	if c.InstrPerThread > maxInstr {
		add("InstrPerThread", "must be at most %d, got %d", maxInstr, c.InstrPerThread)
	}
	interval := func(field string, v uint64) {
		if v != 0 && v < minDisturbInterval {
			add(field, "must be 0 (off) or at least %d cycles, got %d", minDisturbInterval, v)
		}
	}
	interval("ShootdownInterval", c.ShootdownInterval)
	if c.Storm != nil {
		interval("Storm.ContextSwitchInterval", c.Storm.ContextSwitchInterval)
		interval("Storm.PromoteDemoteInterval", c.Storm.PromoteDemoteInterval)
		if c.Storm.Pages > maxStormPages {
			add("Storm.Pages", "must be at most %d, got %d", maxStormPages, c.Storm.Pages)
		}
	}

	if len(c.Apps) == 0 {
		add("Apps", "at least one App required")
	}
	// threads stops growing once it passes maxThreads, so no number of
	// apps can wrap it; every App.Threads it adds is at most maxThreads.
	threads := 0
	for i, a := range c.Apps {
		switch {
		case a.Threads <= 0:
			add(fmt.Sprintf("Apps[%d].Threads", i), "must be positive, got %d", a.Threads)
		case a.Threads > maxThreads:
			add(fmt.Sprintf("Apps[%d].Threads", i), "must be at most %d, got %d", maxThreads, a.Threads)
		case threads <= maxThreads:
			threads += a.Threads
		}
		switch fp := a.Spec.FootprintPages; {
		case fp < 1:
			add(fmt.Sprintf("Apps[%d].Spec.FootprintPages", i), "must be positive, got %d", fp)
		case fp > maxFootprintPages:
			add(fmt.Sprintf("Apps[%d].Spec.FootprintPages", i), "must be at most %d, got %d", maxFootprintPages, fp)
		}
		within := func(field string, v, lo, hi float64) {
			if !(v >= lo && v <= hi) { // also rejects NaN
				add(fmt.Sprintf("Apps[%d].Spec.%s", i, field), "must lie in [%g,%g], got %g", lo, hi, v)
			}
		}
		within("SharedFrac", a.Spec.SharedFrac, 0, 1)
		within("HotFrac", a.Spec.HotFrac, 0, 1)
		within("HotProb", a.Spec.HotProb, 0, 1)
		within("RepeatProb", a.Spec.RepeatProb, 0, 1)
		within("SuperpageFrac", a.Spec.SuperpageFrac, 0, 1)
		within("MemRefPerInstr", a.Spec.MemRefPerInstr, minMemRefPerInstr, maxMemRefPerInstr)
		within("BaseCPI", a.Spec.BaseCPI, minBaseCPI, maxBaseCPI)
		if z := a.Spec.ZipfTheta; !(z >= 0 && z < 1) { // also rejects NaN
			add(fmt.Sprintf("Apps[%d].Spec.ZipfTheta", i), "must lie in [0,1), got %g", z)
		}
		if a.Streams != nil && len(a.Streams) != a.Threads {
			add(fmt.Sprintf("Apps[%d].Streams", i), "%d streams for %d threads",
				len(a.Streams), a.Threads)
		}
		if a.HammerSlice < HammerNone {
			add(fmt.Sprintf("Apps[%d].HammerSlice", i),
				"must be HammerNone (-1) or a slice index, got %d", a.HammerSlice)
		}
	}
	smt := c.SMT
	if smt <= 0 {
		smt = 1
	}
	// Cores and SMT are bounded before the product is formed.
	if c.Cores > 0 && c.Cores <= maxCores && smt <= maxSMT && len(c.Apps) > 0 && threads > c.Cores*smt {
		add("Apps", "%d threads exceed %d cores x %d SMT", threads, c.Cores, smt)
	}

	if len(fields) == 0 {
		return nil
	}
	return &ValidationError{Fields: fields}
}
