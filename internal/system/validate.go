package system

import (
	"fmt"
	"strings"

	"nocstar/internal/noc"
	"nocstar/internal/place"
	"nocstar/internal/ptw"
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

// maxInstr bounds Config.InstrPerThread and Config.WarmupInstr. No
// budget near it can finish: the engine stops every run at maxCycles
// (2·10⁹), and a thread retires nowhere near 2000 instructions a cycle.
// A larger budget would only hold a worker until that safety net or a
// deadline fires, and keeping budgets small keeps the quantities derived
// from them (references per thread, retired-instruction totals) far from
// the float64 and uint64 limits. The limit sits above every budget in
// use, including the 2^40 that the serve tests submit as a run only
// cancellation ends.
const maxInstr uint64 = 1 << 42

// Validate checks cfg without running it, returning nil or a
// *ValidationError listing every invalid field. Zero values that
// Normalized fills with defaults (SMT, L1Scale, Banks, ...) are valid;
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
	if c.SMT < 0 {
		add("SMT", "must be 0 (default 1) or positive, got %d", c.SMT)
	}
	if c.L1Scale < 0 {
		add("L1Scale", "must be 0 (default 1.0) or positive, got %g", c.L1Scale)
	}
	if c.L2EntriesPerCore < 0 {
		add("L2EntriesPerCore", "must be 0 (default) or positive, got %d", c.L2EntriesPerCore)
	}
	if c.Banks < 0 {
		add("Banks", "must be 0 (default) or positive, got %d", c.Banks)
	}
	if c.FixedAccessLatency < 0 {
		add("FixedAccessLatency", "must not be negative, got %d", c.FixedAccessLatency)
	}
	if c.Org == MonolithicFixed && c.FixedAccessLatency <= 0 {
		add("FixedAccessLatency", "required for the monolithic(fixed) organization")
	}
	if c.HPCmax < 0 {
		add("HPCmax", "must be 0 (default 16) or positive, got %d", c.HPCmax)
	}
	if c.Acquire != noc.OneWayAcquire && c.Acquire != noc.RoundTripAcquire {
		add("Acquire", "unknown acquire mode %d", int(c.Acquire))
	}
	if !c.Topology.Valid() {
		add("Topology", "unknown topology %d", int(c.Topology))
	} else if c.Topology != noc.TopoMesh {
		switch c.Org {
		case MonolithicMesh, DistributedMesh:
		default:
			add("Topology", "%v topology requires the monolithic(mesh) or distributed organization, got %v",
				c.Topology, c.Org)
		}
	}
	if !c.Placement.Valid() {
		add("Placement", "unknown placement strategy %d", int(c.Placement))
	} else if c.Placement != place.RowMajor {
		switch c.Org {
		case DistributedMesh, Nocstar, NocstarIdeal, IdealShared:
		default:
			add("Placement", "%v placement requires a sliced organization, got %v",
				c.Placement, c.Org)
		}
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
	if c.PTW.FixedLatency < 0 && c.PTW.Mode != ptw.Fixed {
		add("PTW.FixedLatency", "must not be negative, got %d", c.PTW.FixedLatency)
	}
	if c.PTW.PWCEntries < 0 {
		add("PTW.PWCEntries", "must not be negative, got %d", c.PTW.PWCEntries)
	}
	if c.PTW.Overhead < 0 {
		add("PTW.Overhead", "must not be negative, got %d", c.PTW.Overhead)
	}
	if c.PTW.Walkers < 0 {
		add("PTW.Walkers", "must be 0 (default 2) or positive, got %d", c.PTW.Walkers)
	}
	if c.Policy != WalkAtRequester && c.Policy != WalkAtRemote {
		add("Policy", "unknown walk policy %d", int(c.Policy))
	}
	if c.PrefetchDegree < 0 {
		add("PrefetchDegree", "must not be negative, got %d", c.PrefetchDegree)
	}
	if c.InvLeaders < 0 {
		add("InvLeaders", "must not be negative, got %d", c.InvLeaders)
	}
	if c.QoSMaxCtxWays < 0 {
		add("QoSMaxCtxWays", "must not be negative, got %d", c.QoSMaxCtxWays)
	}
	if c.InstrPerThread > maxInstr {
		add("InstrPerThread", "must be at most %d, got %d", maxInstr, c.InstrPerThread)
	}
	if c.WarmupInstr > maxInstr {
		add("WarmupInstr", "must be at most %d, got %d", maxInstr, c.WarmupInstr)
	}

	if len(c.Apps) == 0 {
		add("Apps", "at least one App required")
	}
	threads := 0
	for i, a := range c.Apps {
		if a.Threads <= 0 {
			add(fmt.Sprintf("Apps[%d].Threads", i), "must be positive, got %d", a.Threads)
		}
		if a.Streams != nil && len(a.Streams) != a.Threads {
			add(fmt.Sprintf("Apps[%d].Streams", i), "%d streams for %d threads",
				len(a.Streams), a.Threads)
		}
		if a.HammerSlice < HammerNone {
			add(fmt.Sprintf("Apps[%d].HammerSlice", i),
				"must be HammerNone (-1) or a slice index, got %d", a.HammerSlice)
		}
		threads += a.Threads
	}
	smt := c.SMT
	if smt <= 0 {
		smt = 1
	}
	if c.Cores > 0 && len(c.Apps) > 0 && threads > c.Cores*smt {
		add("Apps", "%d threads exceed %d cores x %d SMT", threads, c.Cores, smt)
	}

	if len(fields) == 0 {
		return nil
	}
	return &ValidationError{Fields: fields}
}
