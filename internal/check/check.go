// Package check is the simulator's opt-in differential-oracle and
// invariant-checking subsystem. A Checker shadows one run of a
// system.Config (hang it on Config.Check) and verifies, as the run
// executes, properties that plausible-but-wrong timing models silently
// violate:
//
//   - Translation oracle: every translation served by an L1 TLB, a
//     shared slice, a monolithic bank, or a page walk is re-walked
//     against the owning address space's page table; the served
//     (PFN, size) must match, and no translation invalidated by a
//     delivered shootdown may ever be served again afterwards
//     (stale-TLB detection).
//   - NoC circuit invariants: a per-link shadow replica of the NOCSTAR
//     fabric's reservations asserts that no grant overlaps a foreign
//     reservation and that every release frees exactly the caller's own
//     hold — the invariant whose absence let PR 3's link-release clobber
//     survive (see circuit.go).
//   - Engine and timing invariants: executed event cycles never
//     decrease, the free horizons of the L2 TLB ports (private L2
//     TLBs, monolithic banks, slices) are monotone, and per-thread
//     committed reference counts reconcile with the workload length at
//     the end of the run.
//
// A Checker belongs to exactly one run: the system binds it at New and
// the shadow state is meaningless across runs. With Config.Check nil the
// simulator's hot paths pay a predictable nil-test branch and nothing
// else — the allocation-regression gates pin that the checked-off
// critical path still runs at zero heap allocations.
package check

import (
	"fmt"

	"nocstar/internal/engine"
	"nocstar/internal/vm"
)

// Violation is one recorded invariant failure.
type Violation struct {
	Cycle engine.Cycle
	Msg   string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s", uint64(v.Cycle), v.Msg)
}

// maxViolations bounds the recorded list: a broken model can violate an
// invariant millions of times and the first few are the diagnostic ones.
const maxViolations = 64

// Stats counts how much checking a run actually performed, so a test
// enabling the checker can assert the oracle was exercised (a checker
// that silently checked nothing would pass vacuously).
type Stats struct {
	Translations  uint64 // served translations verified against the page table
	Walks         uint64 // walk results verified
	Inserts       uint64 // TLB inserts recorded for stale detection
	Invalidations uint64 // delivered shootdown invalidations recorded
	Grants        uint64 // circuit grants shadowed
	Releases      uint64 // circuit releases shadowed
	Events        uint64 // engine events order-checked
	Ports         uint64 // port-horizon updates checked
}

// invKey identifies one translation for the stale-serve record.
type invKey struct {
	ctx  vm.ContextID
	vpn  uint64
	size vm.PageSize
}

// Checker is the shadow oracle for one run. Construct with New, assign
// to system.Config.Check, and inspect after the run. The zero value is
// not ready for use.
type Checker struct {
	// OnViolation, when non-nil, runs on every recorded violation (e.g.
	// a test's t.Errorf, or a panic for fail-fast debugging). It is
	// called after the violation is recorded.
	OnViolation func(Violation)

	now        func() engine.Cycle
	violations []Violation
	dropped    uint64 // violations beyond maxViolations
	stats      Stats

	// Engine event-order shadow.
	lastWhen engine.Cycle
	lastSeq  uint64
	sawEvent bool

	// Port-free horizon shadows, one per L2 TLB port, sized by BindPorts.
	ports []engine.Cycle

	// Stale-TLB record: a translation is stale when its latest recorded
	// insert generation predates the latest invalidation generation
	// covering it (per-page, or global flush).
	gen      uint64
	inserts  map[invKey]uint64
	invs     map[invKey]uint64
	allFlush uint64

	circuit circuitShadow
}

// New returns an unbound Checker. The system it is handed to (via
// Config.Check) binds it to the run's engine, fabric, and port arrays.
func New() *Checker {
	return &Checker{
		inserts: map[invKey]uint64{},
		invs:    map[invKey]uint64{},
	}
}

// Ok reports whether no invariant has been violated so far.
func (c *Checker) Ok() bool { return len(c.violations) == 0 }

// Violations returns the recorded violations (capped; see Dropped).
func (c *Checker) Violations() []Violation { return c.violations }

// Dropped reports how many violations were recorded beyond the cap.
func (c *Checker) Dropped() uint64 { return c.dropped }

// Stats returns the checking-coverage counters.
func (c *Checker) Stats() Stats { return c.stats }

// Err returns nil when the run was clean, or an error summarizing the
// first violation and the total count.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s), first: %s",
		uint64(len(c.violations))+c.dropped, c.violations[0])
}

// Violatef records an invariant violation. Exported so the layers the
// checker is wired through can report failures they detect themselves
// (e.g. the system's probe-after-invalidate assertion).
func (c *Checker) Violatef(format string, args ...any) {
	v := Violation{Cycle: c.cycle(), Msg: fmt.Sprintf(format, args...)}
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, v)
	if c.OnViolation != nil {
		c.OnViolation(v)
	}
}

// cycle returns the bound engine's current cycle, or 0 when unbound.
func (c *Checker) cycle() engine.Cycle {
	if c.now == nil {
		return 0
	}
	return c.now()
}

// ---------------------------------------------------------------------
// Binding. The system calls these from New when Config.Check is set.

// AttachEngine binds the checker to the run's clock and installs the
// engine's event-order check hook: executed event cycles must never
// decrease, and within a cycle sequence numbers must strictly increase
// (the engine's total (cycle, seq) order).
func (c *Checker) AttachEngine(eng *engine.Engine) {
	c.now = eng.Now
	eng.SetCheck(c.event)
}

// event is the engine check hook.
func (c *Checker) event(when engine.Cycle, seq uint64) {
	c.stats.Events++
	if c.sawEvent {
		if when < c.lastWhen {
			c.Violatef("engine: event cycle decreased: %d after %d", uint64(when), uint64(c.lastWhen))
		} else if when == c.lastWhen && seq <= c.lastSeq {
			c.Violatef("engine: event order violated at cycle %d: seq %d after %d",
				uint64(when), seq, c.lastSeq)
		}
	}
	c.sawEvent = true
	c.lastWhen, c.lastSeq = when, seq
}

// BindPorts sizes the port-free horizon shadows to the run's n L2 TLB
// ports.
func (c *Checker) BindPorts(n int) { c.ports = make([]engine.Cycle, n) }

// Port verifies one update of port idx's free horizon: horizons only
// ever move forward (a port busy through cycle T can never become busy
// only through some earlier T' — that would retroactively un-charge
// contention already paid for).
func (c *Checker) Port(idx int, v engine.Cycle) {
	c.stats.Ports++
	if idx < 0 || idx >= len(c.ports) {
		c.Violatef("port: index %d out of range (%d ports bound)", idx, len(c.ports))
		return
	}
	if v < c.ports[idx] {
		c.Violatef("port: port %d horizon moved backwards: %d after %d",
			idx, uint64(v), uint64(c.ports[idx]))
	}
	c.ports[idx] = v
}

// ---------------------------------------------------------------------
// Translation oracle.

// Served verifies one translation the moment a TLB lookup returns it:
// the served (PFN, size) must match a fresh page-table walk of the
// owning address space, and the entry must not predate a delivered
// invalidation that covers it. Lookups are synchronous in the model, so
// a hit on an invalidated tuple means the structure failed to apply a
// shootdown (or the wrong home structure was invalidated).
func (c *Checker) Served(as *vm.AddressSpace, vpn uint64, size vm.PageSize, pfn uint64) {
	c.stats.Translations++
	va := vm.VirtAddr(vpn << size.Shift())
	pa, gotSize, ok := as.Translate(va)
	switch {
	case !ok:
		c.Violatef("oracle: ctx %d served translation for unmapped va %#x (vpn %#x, %s)",
			as.Ctx, uint64(va), vpn, size)
	case gotSize != size:
		c.Violatef("oracle: ctx %d va %#x served as %s page, page table has %s",
			as.Ctx, uint64(va), size, gotSize)
	case uint64(pa)>>size.Shift() != pfn:
		c.Violatef("oracle: ctx %d va %#x served PFN %#x, page table has %#x",
			as.Ctx, uint64(va), pfn, uint64(pa)>>size.Shift())
	}
	key := invKey{ctx: as.Ctx, vpn: vpn, size: size}
	if ig := c.invGen(key); ig > 0 && c.inserts[key] < ig {
		c.Violatef("oracle: ctx %d vpn %#x (%s) served stale: invalidated at gen %d, last insert gen %d",
			as.Ctx, vpn, size, ig, c.inserts[key])
	}
}

// WalkResult verifies a completed page-table walk against a direct
// re-translation (the differential contract between the timing walker
// and the functional page table).
func (c *Checker) WalkResult(as *vm.AddressSpace, va vm.VirtAddr, res vm.WalkResult) {
	c.stats.Walks++
	pa, size, ok := as.Translate(va)
	switch {
	case !ok:
		c.Violatef("oracle: walk of ctx %d va %#x returned (%#x, %s) but page table has no mapping",
			as.Ctx, uint64(va), uint64(res.PA), res.Size)
	case size != res.Size || pa != res.PA:
		c.Violatef("oracle: walk of ctx %d va %#x returned (%#x, %s), page table has (%#x, %s)",
			as.Ctx, uint64(va), uint64(res.PA), res.Size, uint64(pa), size)
	}
}

// Inserted records a TLB insert of (ctx, vpn, size) for stale-serve
// detection. Every install site — L1 fills, slice/bank/private-L2
// inserts, prefetches — reports here.
func (c *Checker) Inserted(ctx vm.ContextID, vpn uint64, size vm.PageSize) {
	c.stats.Inserts++
	c.gen++
	c.inserts[invKey{ctx: ctx, vpn: vpn, size: size}] = c.gen
}

// Invalidated records one delivered shootdown invalidation. Any
// translation whose last insert predates this generation is stale if
// served afterwards.
func (c *Checker) Invalidated(inv vm.Invalidation) {
	c.stats.Invalidations++
	c.gen++
	c.invs[invKey{ctx: inv.Ctx, vpn: inv.VPN, size: inv.Size}] = c.gen
}

// FlushedAll records a global TLB flush (the storm's x86 context
// switch): every translation inserted before it is invalidated.
func (c *Checker) FlushedAll() {
	c.stats.Invalidations++
	c.gen++
	c.allFlush = c.gen
}

// invGen returns the latest invalidation generation covering key.
func (c *Checker) invGen(key invKey) uint64 {
	return max(c.invs[key], c.allFlush)
}

// ---------------------------------------------------------------------
// End-of-run reconciliation.

// Committed verifies one thread's committed memory references against
// the workload length it was configured with, at the end of the run.
func (c *Checker) Committed(core int, committed, expected uint64) {
	if committed != expected {
		c.Violatef("commit: core %d committed %d references, workload length is %d",
			core, committed, expected)
	}
}
