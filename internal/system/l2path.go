package system

import (
	"nocstar/internal/energy"
	"nocstar/internal/engine"
	"nocstar/internal/metrics"
	"nocstar/internal/noc"
	"nocstar/internal/tlb"
	"nocstar/internal/vm"
)

// accessL2 is the entry point of the last-level TLB access path: the
// thread has missed its L1 TLB and stalls until the translation returns
// (address translation is on the critical path of every L1 cache access).
// It is the one place that picks a leg for the request: localAccess when
// the array is on the requester's own tile, nocstarAccess over the
// circuit-switched fabric, meshAccess otherwise.
//
// The thread resumes at finish(); the *access* — the Fig. 5/6
// "outstanding shared L2 TLB access" window — ends at endAccess, when the
// response or miss message returns to the requester. A subsequent page
// walk stalls the thread but is not an outstanding L2 TLB access.
func (s *System) accessL2(x *xact) {
	th := x.th
	s.ensureMapped(th.app, x.va)
	x.start = s.eng.Now()
	s.m.l2Accesses.Inc()
	s.outstanding++
	s.conc.Observe(s.outstanding)

	p := s.portFor(th, x.va)
	x.src, x.dst, x.slice = th.core.node, p.node, -1
	if s.cfg.Org.sliced() {
		x.slice = p.idx
		s.sliceBegin(x.slice)
		if x.src == x.dst {
			s.m.localSlice.Inc()
		}
	}
	switch {
	case x.src == x.dst && !s.cfg.Org.monolithic():
		s.localAccess(x, p)
	case s.fabric != nil:
		s.nocstarAccess(x)
	default:
		// A monolithic bank takes the mesh leg even from its own tile:
		// it counts as a remote access and, under WalkAtRemote, walks at
		// the bank's core.
		s.meshAccess(x, p)
	}
}

// endAccess closes the outstanding-access window opened in accessL2.
// slice is the shared slice involved, or -1 for organizations without
// per-slice tracking.
func (s *System) endAccess(slice int) {
	s.outstanding--
	if slice >= 0 {
		s.sliceEnd(slice)
	}
}

// finish releases the thread: account its stall and issue its next run of
// references. The transaction is recycled first so the next L1 miss (in
// this very call) can reuse it.
func (s *System) finish(x *xact) {
	th := x.th
	th.stall += uint64(s.eng.Now() - x.start)
	s.putXact(x)
	s.threadLoop(th)
}

// resumeWithEntry finishes a hit: install the translation in the L1 TLB
// and release the thread.
func (s *System) resumeWithEntry(x *xact) {
	th := x.th
	e := x.entry
	vpn := x.va.VPN(e.Size)
	th.core.l1.Insert(th.app.as.Ctx, vpn, e.Size, e.PFN)
	if s.check != nil {
		s.check.Inserted(th.app.as.Ctx, vpn, e.Size)
	}
	s.finish(x)
}

// resumeWithWalk finishes a miss after its walk: install in L1.
func (s *System) resumeWithWalk(x *xact) {
	th := x.th
	size := x.res.Size
	th.core.l1.Insert(th.app.as.Ctx, x.va.VPN(size), size, uint64(x.res.PA)>>size.Shift())
	if s.check != nil {
		s.check.Inserted(th.app.as.Ctx, x.va.VPN(size), size)
	}
	s.finish(x)
}

// scheduleWalk runs a page-table walk at core c, scheduling op at the
// walk's completion cycle with the result in x.res.
func (s *System) scheduleWalk(c *core, x *xact, op uint8) {
	lat, res, ok := c.walker.Walk(s.eng.Now(), x.th.app.as, x.va)
	if !ok {
		panic("system: walk of unmapped address (ensureMapped missing)")
	}
	s.m.walks.Inc()
	s.m.walkLat.Observe(uint64(lat))
	if s.tracer != nil {
		s.tracer.Emit(metrics.TraceWalk, uint64(s.eng.Now()), uint64(lat),
			int32(c.id), int32(x.slice))
	}
	x.res = res
	if s.check != nil {
		s.check.WalkResult(x.th.app.as, x.va, res)
	}
	s.eng.ScheduleAct(engine.Cycle(lat), s, op, x)
}

// localWalked completes a walk performed at the requesting core: install
// the translation, charge the insert message that ships it to a remote
// slice or bank (off the critical path), and resume the thread.
func (s *System) localWalked(x *xact) {
	s.insertTranslation(x.th, x.va, x.res)
	switch {
	case x.src == x.dst:
		// The array is on the requester's tile: no message.
	case s.fabric != nil:
		s.sendInsertMessage(x.src, x.dst)
	default:
		s.meter.AddMessage(energy.MeshMessage(x.hops, 0))
	}
	s.resumeWithWalk(x)
}

// remoteWalked completes a WalkAtRemote walk at the slice/bank owner:
// install the translation there, then carry the result back to the
// requester over the organization's interconnect.
func (s *System) remoteWalked(x *xact) {
	s.insertTranslation(x.th, x.va, x.res)
	if s.fabric != nil {
		x.arrived = opEndResumeWalk
		s.sendNocstarResponse(x, s.eng.Now())
		return
	}
	s.eng.ScheduleAct(engine.Cycle(x.oneWay), s, opEndResumeWalk, x)
}

// insertTranslation installs a walked translation into the L2 array
// behind its port (portFor), plus the ±k prefetch neighbours of
// Table III, each behind its own port. Prefetched translations piggyback
// on the PTE cache line the walk fetched, so they cost no extra walk;
// only already-mapped neighbours can be prefetched. A neighbour past
// either end of the address space (below page 0, or at or past
// vm.VPNLimit at its page size) does not exist and is skipped.
func (s *System) insertTranslation(th *thread, va vm.VirtAddr, res vm.WalkResult) {
	a := th.app
	size := res.Size
	vpn := va.VPN(size)
	s.insertOne(th, va, size, uint64(res.PA)>>size.Shift())

	limit := vm.VPNLimit >> (size.Shift() - vm.Page4K.Shift())
	for k := 1; k <= s.cfg.PrefetchDegree; k++ {
		// Below page 0 the subtraction wraps past the limit.
		for _, nvpn := range [2]uint64{vpn + uint64(k), vpn - uint64(k)} {
			if nvpn >= limit {
				continue
			}
			nva := vm.VirtAddr(nvpn << size.Shift())
			// The OS maps whole regions eagerly, so neighbouring PTEs
			// exist even before the application touches those pages.
			pa, nsize := s.ensureMapped(a, nva)
			if nsize != size {
				continue
			}
			s.insertOne(th, nva, size, uint64(pa)>>size.Shift())
			s.m.prefetches.Inc()
		}
	}
}

// insertOne installs th's translation of va's page into the array behind
// va's port.
func (s *System) insertOne(th *thread, va vm.VirtAddr, size vm.PageSize, pfn uint64) {
	ctx := th.app.as.Ctx
	vpn := va.VPN(size)
	s.portFor(th, va).tlb.Insert(ctx, vpn, size, pfn)
	if s.check != nil {
		s.check.Inserted(ctx, vpn, size)
	}
}

// probe claims port p for one lookup of va that may begin no earlier
// than earliest. A lookup holds the port for l2Busy cycles (one for a
// pipelined private L2 or slice, bankServiceCycles for a monolithic
// bank) and returns its result l2Lat cycles after it begins.
func (s *System) probe(p *l2port, a *app, va vm.VirtAddr, earliest engine.Cycle) (doneAt engine.Cycle, e tlb.Entry, hit bool) {
	avail := max(earliest, p.free)
	p.free = avail + s.l2Busy
	e, hit = p.tlb.Lookup(a.as.Ctx, va)
	if s.check != nil {
		s.check.Port(p.idx, p.free)
		if hit {
			s.check.Served(a.as, va.VPN(e.Size), e.Size, e.PFN)
		}
	}
	return avail + engine.Cycle(s.l2Lat), e, hit
}

// localAccess is an access that needs no interconnect: a private L2 TLB
// lookup (Fig. 1a, the baseline), or a distributed, ideal or NOCSTAR
// requester's own slice (Fig. 11a "Case 1"). A miss walks at the
// requester.
func (s *System) localAccess(x *xact, p *l2port) {
	doneAt, e, hit := s.probe(p, x.th.app, x.va, x.start)
	if hit {
		s.hitAt(x, e, doneAt)
		return
	}
	s.noteMiss(x)
	s.eng.AtAct(doneAt, s, opLocalMiss, x)
}

// hitAt schedules the end of a hit whose entry e reaches the requester
// at back.
func (s *System) hitAt(x *xact, e tlb.Entry, back engine.Cycle) {
	s.m.l2Hits.Inc()
	s.noteHit(x, back)
	x.entry = e
	s.eng.AtAct(back, s, opHitDone, x)
}

// ---------------------------------------------------------------------
// The contention-free round trip: a monolithic banked shared L2 TLB
// (Fig. 1c) over mesh / SMART / a forced flat latency (Fig. 4), or a
// remote distributed slice over a multi-hop mesh (Fig. 1d), or the
// zero-interconnect-latency "ideal" reference.

// meshAccess carries the request to port p and the result or miss
// message back, each way taking meshLatency of the hops between them. A
// miss under WalkAtRemote walks at the port's core instead; otherwise the
// requester walks and an insert message flows back (off the critical
// path).
func (s *System) meshAccess(x *xact, p *l2port) {
	x.hops = s.geo.Hops(x.src, x.dst)
	x.oneWay = s.meshLatency(x.hops)
	s.meter.AddMessage(energy.MeshMessage(2*x.hops, 0))
	s.m.netLat.Observe(uint64(2 * x.oneWay))
	s.m.remote.Inc()

	doneAt, e, hit := s.probe(p, x.th.app, x.va, x.start+engine.Cycle(x.oneWay))
	back := doneAt + engine.Cycle(x.oneWay)
	if hit {
		s.hitAt(x, e, back)
		return
	}
	s.noteMiss(x)
	if s.cfg.Policy == WalkAtRemote {
		s.eng.AtAct(doneAt, s, opRemoteWalkStart, x)
		return
	}
	s.eng.AtAct(back, s, opLocalMiss, x)
}

// meshLatency is the one-way latency of an h-hop message on the
// organization's contention-free interconnect.
func (s *System) meshLatency(h int) int {
	switch s.cfg.Org {
	case MonolithicMesh, DistributedMesh:
		return noc.MeshLatency(h)
	case MonolithicSMART:
		return noc.SMARTLatency(h)
	}
	// MonolithicFixed folds the interconnect into its forced access
	// latency; IdealShared has none.
	return 0
}

// bankServiceCycles is the initiation interval of one monolithic bank: a
// multi-kiloentry array with a shared H-tree cannot accept a new lookup
// every cycle the way a small slice can, which is the port contention the
// paper's Section II-C3 charges against the monolithic organization.
const bankServiceCycles = 8

// pollutionLines is how many resident lines a foreign page walk displaces
// in each inner level of the slice-owner's walker view under the
// remote-walk policy ("it pollutes the local cache of the remote core
// (degrading performance)" — a mild, steady pressure, not a flush). The
// view is [8-set L2, shared LLC], so a remote walk also evicts lines
// from the chip-wide LLC, not only from the remote core's own cache.
const pollutionLines = 2

// sliceBegin / sliceEnd maintain the Fig. 6-right per-slice concurrency
// histogram.
func (s *System) sliceBegin(slice int) {
	s.sliceOut[slice]++
	s.sliceConc.Observe(s.sliceOut[slice])
}

func (s *System) sliceEnd(slice int) { s.sliceOut[slice]-- }

// ---------------------------------------------------------------------
// NOCSTAR: distributed slices over the latchless circuit-switched fabric
// (Section III; timeline of Fig. 10).

// nocstarAccess requests a circuit to the remote slice x.slice.
func (s *System) nocstarAccess(x *xact) {
	s.m.remote.Inc()
	// NOCSTAR routes the mesh grid structurally (per-link XY circuits).
	x.hops = s.geo.Hops(x.src, x.dst)
	s.meter.AddMessage(energy.NocstarMessage(2*x.hops, 0))

	trav := s.fabric.TraversalCycles(x.hops)
	hold := s.fabric.HoldCyclesOneWay(x.src, x.dst)
	if s.cfg.Acquire == noc.RoundTripAcquire {
		// Hold the path for the whole remote access: request traversal,
		// estimated queue, lookup, response traversal.
		hold = engine.Cycle(2*trav+s.l2Lat) + 2
	}
	x.hold = hold
	s.fabric.RequestPathTo(x.src, x.dst, hold, s, grantRequest, x)
}

// nocstarGranted continues a remote NOCSTAR access once the request path
// is granted. Now() is the first traversal cycle; the message lands at the
// slice at the end of traversal, and the lookup may start the following
// cycle.
func (s *System) nocstarGranted(x *xact, gotTrav int) {
	if s.cfg.Acquire == noc.RoundTripAcquire {
		// The grant was delivered one cycle after arbitration reserved the
		// links through (arbitration cycle + hold); remember that window so
		// the eventual release frees exactly this grant's reservations.
		x.relUntil = s.eng.Now() - 1 + x.hold
	}
	arrive := s.eng.Now() + engine.Cycle(gotTrav-1)
	doneAt, e, hit := s.probe(&s.ports[x.slice], x.th.app, x.va, arrive+1)
	if hit {
		s.m.l2Hits.Inc()
		x.entry = e
		x.arrived = opHitDone
		s.sendNocstarResponse(x, doneAt)
		return
	}
	s.noteMiss(x)
	if s.cfg.Policy == WalkAtRemote {
		s.eng.AtAct(doneAt, s, opRemoteWalkStart, x)
		return
	}
	// Walk at requester: the miss message is the response.
	x.arrived = opLocalMiss
	s.sendNocstarResponse(x, doneAt)
}

// sendNocstarResponse delivers a response (or miss message) from the
// slice back to the requester. readyAt is when the payload is available.
// Under one-way acquisition, the response path is set up speculatively
// during the slice lookup (Fig. 10), so an uncontended response departs
// the cycle the lookup completes. Under round-trip acquisition the links
// are already held; the response simply traverses and the path releases.
func (s *System) sendNocstarResponse(x *xact, readyAt engine.Cycle) {
	trav := s.fabric.TraversalCycles(s.geo.Hops(x.dst, x.src))
	if s.cfg.Acquire == noc.RoundTripAcquire {
		back := readyAt + engine.Cycle(trav)
		s.eng.AtAct(back, s, opNocRelease, x)
		s.nocstarArrived(x, back)
		return
	}
	issueAt := readyAt - 1 // speculative overlap with the lookup
	if s.cfg.NoSpeculativeResponse {
		issueAt = readyAt // arbitration only begins once the result is known
	}
	if issueAt < s.eng.Now() {
		issueAt = s.eng.Now()
	}
	x.readyAt = readyAt
	s.eng.AtAct(issueAt, s, opNocRespIssue, x)
}

// nocstarArrived schedules the requester-side continuation x.arrived for
// a response landing at cycle back.
func (s *System) nocstarArrived(x *xact, back engine.Cycle) {
	if x.arrived == opHitDone {
		s.noteHit(x, back)
	}
	s.eng.AtAct(back, s, x.arrived, x)
}

// sendInsertMessage ships a walked translation to its home slice, off the
// thread's critical path: the message still occupies real links.
func (s *System) sendInsertMessage(src, dst noc.NodeID) {
	s.meter.AddMessage(energy.NocstarMessage(s.geo.Hops(src, dst), 0))
	// On arrival the slice write port is charged; the grant payload points
	// into s.ports, which is never reallocated after New.
	s.fabric.RequestPathTo(src, dst, s.fabric.HoldCyclesOneWay(src, dst),
		s, grantInsert, &s.ports[int(dst)])
}
