package system

import (
	"nocstar/internal/engine"
	"nocstar/internal/noc"
	"nocstar/internal/tlb"
	"nocstar/internal/vm"
)

// xact is one in-flight L2 TLB translation, recycled through the System's
// free list. A thread has at most one outstanding translation, so one xact
// carries the whole thread-issue → L2/NoC → walk → resume sequence; the
// continuation to run next is selected by the op code of the event (or
// grant) that delivers it.
type xact struct {
	th    *thread
	va    vm.VirtAddr
	start engine.Cycle
	slice int // home slice, or -1 for organizations without slice tracking

	src, dst noc.NodeID // requester's tile, and the tile of its L2 port
	oneWay   int        // one-way latency of the mesh leg (meshAccess)
	hops     int

	entry   tlb.Entry     // hit payload
	res     vm.WalkResult // walk payload
	readyAt engine.Cycle  // NOCSTAR response payload-ready cycle
	// arrived is the op to run at the requester when a NOCSTAR response
	// lands: opHitDone, opLocalMiss or opEndResumeWalk.
	arrived uint8

	// Round-trip path bookkeeping: the requested hold, and the grant's
	// reservation window (reservedUntil value) so the early release frees
	// only this grant's links.
	hold     engine.Cycle
	relUntil engine.Cycle

	next *xact
}

// System operation codes (engine.Actor).
const (
	opThreadLoop      uint8 = iota // run threadLoop(arg.(*thread))
	opAccessL2                     // start the L2 access path for an xact
	opHitDone                      // end the access window, resume with x.entry
	opLocalMiss                    // end the access window, walk at the requester
	opLocalWalked                  // requester walk done: insert + resume
	opRemoteWalkStart              // pollute the port's core, start its walk
	opRemoteWalked                 // remote walk done: insert + return result
	opEndResumeWalk                // end the access window, resume with x.res
	opNocRespIssue                 // arbitrate the speculative NOCSTAR response
	opNocRelease                   // release a round-trip-held NOCSTAR path
	opShootdownTick                // disturbance re-arm: shootdown generator
	opStormPromote                 // disturbance re-arm: storm promote/demote
	opStormCtxSwitch               // disturbance re-arm: storm context switch
)

// Grant operation codes (noc.GrantHandler).
const (
	grantRequest  uint8 = iota // request path granted: lookup at the slice
	grantResponse              // response path granted: deliver to requester
	grantInsert                // insert message arrived: charge the slice port
)

// getXact pops a zeroed transaction from the free list.
func (s *System) getXact() *xact {
	x := s.xfree
	if x == nil {
		return &xact{}
	}
	s.xfree = x.next
	*x = xact{}
	return x
}

// putXact recycles a finished transaction.
func (s *System) putXact(x *xact) {
	*x = xact{next: s.xfree}
	s.xfree = x
}

// Act dispatches the system's typed events (engine.Actor).
func (s *System) Act(op uint8, arg any) {
	switch op {
	case opThreadLoop:
		s.threadLoop(arg.(*thread))
		return
	case opShootdownTick:
		s.shootdownTick()
		return
	case opStormPromote:
		s.stormPromoteDemote(arg.(*storm))
		return
	case opStormCtxSwitch:
		s.stormContextSwitch()
		return
	}
	x := arg.(*xact)
	switch op {
	case opAccessL2:
		s.accessL2(x)
	case opHitDone:
		s.endAccess(x.slice)
		s.resumeWithEntry(x)
	case opLocalMiss:
		s.endAccess(x.slice)
		s.scheduleWalk(x.th.core, x, opLocalWalked)
	case opLocalWalked:
		s.localWalked(x)
	case opRemoteWalkStart:
		c := s.cores[x.dst]
		c.hier.Pollute(pollutionLines)
		s.scheduleWalk(c, x, opRemoteWalked)
	case opRemoteWalked:
		s.remoteWalked(x)
	case opEndResumeWalk:
		s.endAccess(x.slice)
		s.resumeWithWalk(x)
	case opNocRespIssue:
		s.fabric.RequestPathTo(x.dst, x.src,
			s.fabric.HoldCyclesOneWay(x.dst, x.src), s, grantResponse, x)
	case opNocRelease:
		s.fabric.Release(x.src, x.dst, x.relUntil)
	default:
		panic("system: unknown op")
	}
}

// PathGranted dispatches NOCSTAR fabric grants (noc.GrantHandler).
func (s *System) PathGranted(op uint8, arg any, traversal int) {
	switch op {
	case grantRequest:
		s.nocstarGranted(arg.(*xact), traversal)
	case grantResponse:
		// Now() is the first traversal cycle; the payload may lag the
		// speculatively acquired path.
		x := arg.(*xact)
		back := s.eng.Now() + engine.Cycle(traversal-1)
		if back < x.readyAt {
			back = x.readyAt
		}
		s.nocstarArrived(x, back)
	case grantInsert:
		// Insert message arrived: charge the home slice's write port.
		s.chargePort(arg.(*l2port), 1)
	default:
		panic("system: unknown grant op")
	}
}
