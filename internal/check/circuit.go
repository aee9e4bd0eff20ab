package check

import (
	"nocstar/internal/engine"
	"nocstar/internal/noc"
)

// circuitShadow is an independent replica of the NOCSTAR fabric's
// per-link reservation state. The fabric enforces non-overlap by
// construction at grant time, so a bug that corrupts reservations —
// PR 3's Release clobber, which unconditionally rewound a link another
// grant had re-reserved — is invisible to the fabric itself: the next
// grant simply sees a free link and two circuits overlap silently. The
// shadow applies the *correct* semantics to its own copy and compares
// against the fabric after every grant and release, so the first
// divergence is reported at the event that caused it.
type circuitShadow struct {
	fabric        *noc.Nocstar
	reservedUntil []engine.Cycle
	// path is scratch for the route under check, enumerated by the
	// shadow itself with Geometry.AppendXYPath rather than taken from the
	// fabric, so a fabric routing bug shows as a divergence.
	path []noc.LinkID
}

// AttachFabric binds the checker to a NOCSTAR fabric and installs the
// circuit observer. Call once, before the run starts.
func (c *Checker) AttachFabric(f *noc.Nocstar) {
	c.circuit = circuitShadow{
		fabric:        f,
		reservedUntil: make([]engine.Cycle, f.Geometry().NumLinks()),
	}
	f.SetCircuitObserver(c)
}

// CircuitGranted implements noc.CircuitObserver: the fabric reserved
// the XY route from src to dst for [now+1, until]. The shadow asserts no
// link of the route was still held (an overlapping foreign reservation
// means two circuits share a wire), then mirrors the reservation and
// cross-checks the fabric's own state.
func (c *Checker) CircuitGranted(src, dst noc.NodeID, now, until engine.Cycle) {
	c.stats.Grants++
	sh := &c.circuit
	sh.path = sh.fabric.Geometry().AppendXYPath(sh.path[:0], src, dst)
	for _, l := range sh.path {
		if sh.reservedUntil[l] > now {
			c.Violatef("noc: grant %d->%d overlaps link %d held through cycle %d (grant window ends %d)",
				int(src), int(dst), int(l), uint64(sh.reservedUntil[l]), uint64(until))
		}
		sh.reservedUntil[l] = until
		if got := sh.fabric.ReservedUntil(l); got != until {
			c.Violatef("noc: grant %d->%d link %d reserved through %d in fabric, want %d",
				int(src), int(dst), int(l), uint64(got), uint64(until))
		}
	}
}

// CircuitReleased implements noc.CircuitObserver: an early release for
// the grant whose reservation window ended at until. The shadow frees
// exactly the links still held by that window — a link whose
// reservation has moved on belongs to a later grant and must not be
// touched — then asserts the fabric agrees link by link. The
// unconditional-rewind bug diverges here immediately: the fabric frees
// a foreign hold the shadow correctly retains.
func (c *Checker) CircuitReleased(src, dst noc.NodeID, now, until engine.Cycle) {
	c.stats.Releases++
	sh := &c.circuit
	sh.path = sh.fabric.Geometry().AppendXYPath(sh.path[:0], src, dst)
	for _, l := range sh.path {
		if sh.reservedUntil[l] > now && sh.reservedUntil[l] == until {
			sh.reservedUntil[l] = now
		}
		if got := sh.fabric.ReservedUntil(l); got != sh.reservedUntil[l] {
			c.Violatef("noc: release %d->%d (window %d) freed link %d to %d, want %d — release did not free exactly the caller's hold",
				int(src), int(dst), uint64(until), int(l), uint64(got), uint64(sh.reservedUntil[l]))
		}
	}
}
