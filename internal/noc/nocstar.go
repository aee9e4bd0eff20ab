package noc

import (
	"cmp"
	"math"
	"slices"

	"nocstar/internal/engine"
	"nocstar/internal/metrics"
)

// AcquireMode selects the paper's two link-reservation policies
// (Section V, "Path setup options" / Fig. 16 left).
type AcquireMode int

const (
	// OneWayAcquire reserves links only for one message's traversal; the
	// response arbitrates separately (the paper's better-performing
	// "2×one-way" mode).
	OneWayAcquire AcquireMode = iota
	// RoundTripAcquire holds the path for the whole remote access,
	// request through response ("1×two-way").
	RoundTripAcquire
)

// PriorityRotationPeriod is how often the static arbitration priority
// rotates round-robin to prevent starvation (Section III-B2: every 1000
// cycles).
const PriorityRotationPeriod = 1000

// NocstarConfig configures the circuit-switched fabric.
type NocstarConfig struct {
	Geometry Geometry
	// HPCmax is the maximum hops a signal travels per cycle before a
	// pipeline latch is required (Section III-B3). Zero means the whole
	// chip is reachable in one cycle.
	HPCmax int
	// Ideal disables contention: every setup is granted immediately.
	// Used for the paper's "NOCSTAR (ideal)" series in Fig. 15.
	Ideal bool
}

// NocstarStats aggregates fabric behaviour for Fig. 11(c) and Fig. 15.
type NocstarStats struct {
	Messages        uint64 // granted traversals
	SetupAttempts   uint64 // one per arbitration try
	FirstTryGrants  uint64 // messages granted with zero contention delay
	TotalSetupDelay uint64 // cycles from first request to grant, >= 1 each
	TotalTraversal  uint64 // datapath cycles
	Retries         uint64 // denied arbitration attempts (SetupAttempts - Messages)
	Releases        uint64 // early Release calls (RoundTripAcquire only)
	ReleasedLinks   uint64 // links actually freed early by Release
	ForeignLinks    uint64 // links a Release skipped because another grant held them
}

// AvgSetupCycles reports the mean cycles spent acquiring a path
// (1.0 = no contention ever).
func (s NocstarStats) AvgSetupCycles() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.TotalSetupDelay) / float64(s.Messages)
}

// NoContentionFraction reports the fraction of messages whose path was
// granted on the first attempt (plotted in Fig. 11(c)).
func (s NocstarStats) NoContentionFraction() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.FirstTryGrants) / float64(s.Messages)
}

// AvgNetworkLatency reports mean setup+traversal cycles per message.
func (s NocstarStats) AvgNetworkLatency() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.TotalSetupDelay+s.TotalTraversal) / float64(s.Messages)
}

// CircuitObserver observes the fabric's reservation state changes, for
// invariant checking (internal/check): CircuitGranted runs after a
// grant reserves the XY route from src to dst through cycle until,
// CircuitReleased after an early Release for the hold window ending at
// until has been processed. The observer receives only the endpoints,
// not the fabric's route, so it can enumerate the links independently
// (Geometry.XYPath) and catch a routing bug rather than mirror it. The
// observer is never invoked on an Ideal fabric, which keeps no
// reservations.
type CircuitObserver interface {
	CircuitGranted(src, dst NodeID, now, until engine.Cycle)
	CircuitReleased(src, dst NodeID, now, until engine.Cycle)
}

// GrantHandler receives path grants. Like engine.Actor, a request
// carries a (handler, op, arg) triple instead of a captured closure: the
// handler is a persistent model object, op selects the continuation, and
// arg is an opaque pointer payload. PathGranted runs at the start of the
// cycle the message may begin traversing.
type GrantHandler interface {
	PathGranted(op uint8, arg any, traversal int)
}

// linkRun is a straight run of n directed links: first, then every
// stride IDs after it. A run is one leg of an XY route. The fields are
// 32-bit to keep a route, which every setup request carries, small.
type linkRun struct{ first, stride, n int32 }

// xyRoute is the XY route between two nodes as its X run followed by its
// Y run — the links of Geometry.XYPath, in the same order, computed from
// the endpoints' coordinates instead of stored.
type xyRoute struct{ x, y linkRun }

// hops reports the route's length in links.
func (r xyRoute) hops() int { return int(r.x.n + r.y.n) }

// gridPos is a node's (row, col), tabulated per fabric so that building a
// route costs no integer division.
type gridPos struct{ row, col int32 }

// setupReq is one in-flight path-setup request. Requests are recycled
// through the fabric's free list once their grant is delivered.
type setupReq struct {
	src, dst NodeID
	route    xyRoute
	hold     engine.Cycle // cycles the links stay reserved once granted
	firstTry engine.Cycle
	// key orders the request in its arbitration round: its rotating
	// static priority above its enqueue index within the round, so keys
	// are unique and sorting by key is the stable sort by priority.
	key uint64

	h   GrantHandler
	op  uint8
	arg any

	traversal int // datapath cycles, filled at grant time
	next      *setupReq

	// The denial memo: the reservation of the link that last denied the
	// request, and the fabric's release generation at that moment. While
	// the generation is unchanged that link stays held through at least
	// blockedUntil (see granted), so re-checks before then deny without
	// scanning the path.
	blockedUntil engine.Cycle
	blockedGen   uint64
}

// retryBatch carries one arbitration round's denied requests, in
// arbitration order, to the next cycle's round. Batches are recycled
// through the fabric's free list once they have been re-enqueued.
type retryBatch struct {
	reqs []*setupReq
	next *retryBatch
}

// Nocstar's own engine.Actor operation codes.
const (
	nocOpRetry     uint8 = iota // re-enter arbitration after a denied cycle (arg: *retryBatch)
	nocOpGrant                  // deliver a granted request to its continuation (arg: *setupReq)
	nocOpArbitrate              // end-of-cycle finalizer: resolve this cycle's requests
)

// Nocstar is the latchless circuit-switched TLB interconnect. All link
// arbiters resolve synchronously at the end of each cycle: a requester
// must win every link of its XY path in the same cycle or it retries next
// cycle (Section III-B2, "no packets traversing partial paths").
type Nocstar struct {
	cfg    NocstarConfig
	eng    *engine.Engine
	geo    Geometry
	coords []gridPos // coords[node] is the node's (row, col) in geo
	// reservedUntil[l] is the last cycle link l is held through.
	reservedUntil []engine.Cycle
	// A round's requests arrive as new requests and as the retry batches
	// of earlier rounds, each list in enqueue order; order is the buffer
	// the two merge into, in arbitration order.
	arrivals     []*setupReq
	retries      []*setupReq
	order        []*setupReq
	enqueued     uint64 // requests enqueued in the current round
	arbScheduled bool
	free         *setupReq
	batchFree    *retryBatch
	stats        NocstarStats
	// releaseGen counts Release calls that freed a held link: the only
	// way a link's reservation moves backwards.
	releaseGen uint64

	// Optional observability, attached before the run starts. All are
	// nil-checked on the hot path; detached costs one branch.
	setupHist *metrics.Hist   // cycles from first request to grant
	tracer    *metrics.Tracer // path setup/grant/release events
	observer  CircuitObserver // reservation invariant checking

	// legacyRelease restores the pre-fix unconditional rewind in Release
	// — the PR 3 clobber bug, where a late round-trip release freed links
	// a later grant had re-reserved. It exists only so the invariant
	// checker's regression test can demonstrate the historical bug is
	// caught; never set it outside tests.
	legacyRelease bool
}

// NewNocstar builds the fabric on an engine.
func NewNocstar(eng *engine.Engine, cfg NocstarConfig) *Nocstar {
	g := cfg.Geometry
	n := &Nocstar{
		cfg:           cfg,
		eng:           eng,
		geo:           g,
		coords:        make([]gridPos, g.Nodes()),
		reservedUntil: make([]engine.Cycle, g.NumLinks()),
	}
	for i := range n.coords {
		n.coords[i] = gridPos{row: int32(i / g.Cols), col: int32(i % g.Cols)}
	}
	return n
}

// route returns the XY route from src to dst: the X run leaves src
// east or west along its row, then the Y run leaves the turn node
// (src's row, dst's column) south or north along that column.
func (n *Nocstar) route(src, dst NodeID) xyRoute {
	s, d := n.coords[src], n.coords[dst]
	const dirs = int32(numDirections)
	var r xyRoute
	dc := d.col - s.col
	if dc >= 0 {
		r.x = linkRun{first: int32(src)*dirs + int32(East), stride: dirs, n: dc}
	} else {
		r.x = linkRun{first: int32(src)*dirs + int32(West), stride: -dirs, n: -dc}
	}
	turn := int32(src) + dc
	dr := d.row - s.row
	col := dirs * int32(n.geo.Cols)
	if dr >= 0 {
		r.y = linkRun{first: turn*dirs + int32(South), stride: col, n: dr}
	} else {
		r.y = linkRun{first: turn*dirs + int32(North), stride: -col, n: -dr}
	}
	return r
}

// Geometry returns the fabric's grid.
func (n *Nocstar) Geometry() Geometry { return n.geo }

// Stats returns a copy of the accumulated statistics.
func (n *Nocstar) Stats() NocstarStats { return n.stats }

// AttachMetrics registers the fabric's latency histograms on reg. Call
// once, before the run starts; observations are allocation-free.
func (n *Nocstar) AttachMetrics(reg *metrics.Registry) {
	n.setupHist = reg.Hist("noc.setup_cycles", nil)
}

// SetTracer attaches an event tracer (nil detaches).
func (n *Nocstar) SetTracer(tr *metrics.Tracer) { n.tracer = tr }

// SetCircuitObserver attaches a reservation observer (nil detaches).
// Call before the run starts.
func (n *Nocstar) SetCircuitObserver(o CircuitObserver) { n.observer = o }

// ReservedUntil reports the last cycle link l is currently held
// through. It exposes the fabric's reservation state read-only so an
// observer can cross-check its own shadow copy.
func (n *Nocstar) ReservedUntil(l LinkID) engine.Cycle { return n.reservedUntil[l] }

// SetLegacyReleaseForTest switches Release to the pre-fix unconditional
// rewind (the PR 3 clobber bug). Test-only: it exists so the invariant
// checker can be validated against a known historical bug.
func (n *Nocstar) SetLegacyReleaseForTest(on bool) { n.legacyRelease = on }

// TraversalCycles returns the datapath cycles for h hops: a single cycle
// when the path fits within HPCmax, one more per additional HPCmax-hop
// segment (pipeline latches, Section III-B3). Zero hops (local slice)
// costs nothing.
func (n *Nocstar) TraversalCycles(h int) int {
	if h <= 0 {
		return 0
	}
	if n.cfg.HPCmax <= 0 {
		return 1
	}
	return (h + n.cfg.HPCmax - 1) / n.cfg.HPCmax
}

// HoldCyclesOneWay returns how long links are reserved for a one-way
// message between src and dst.
func (n *Nocstar) HoldCyclesOneWay(src, dst NodeID) engine.Cycle {
	s, d := n.coords[src], n.coords[dst]
	return engine.Cycle(n.TraversalCycles(abs(int(d.row-s.row)) + abs(int(d.col-s.col))))
}

// RequestPathTo begins acquiring the XY path from src to dst.
// Arbitration happens at the end of the current cycle; on a conflict the
// request retries automatically every cycle until it wins. On grant,
// h.PathGranted(op, arg, traversal) runs at the start of the cycle the
// message may begin traversing. hold is how many cycles the links stay
// reserved from that point (use HoldCyclesOneWay, or the full round-trip
// residency for RoundTripAcquire).
//
// src == dst is a caller bug — local slices bypass the network — and
// panics to surface model errors early.
func (n *Nocstar) RequestPathTo(src, dst NodeID, hold engine.Cycle, h GrantHandler, op uint8, arg any) {
	if src == dst {
		panic("noc: RequestPathTo for local access")
	}
	req := n.free
	if req == nil {
		req = &setupReq{}
	} else {
		n.free = req.next
	}
	*req = setupReq{src: src, dst: dst, route: n.route(src, dst), hold: hold,
		firstTry: n.eng.Now(), h: h, op: op, arg: arg}
	n.arrivals = n.enqueue(n.arrivals, req)
}

// freeReq recycles a request whose grant has been delivered.
func (n *Nocstar) freeReq(req *setupReq) {
	*req = setupReq{next: n.free}
	n.free = req
}

// enqueue adds a request to this cycle's arbitration round, appending it
// to list, and returns the list.
func (n *Nocstar) enqueue(list []*setupReq, req *setupReq) []*setupReq {
	req.key = n.enqueued
	n.enqueued++
	if !n.arbScheduled {
		n.arbScheduled = true
		n.eng.AtEndOfCycle(n, nocOpArbitrate, nil)
	}
	return append(list, req)
}

// Act dispatches the fabric's own typed events.
func (n *Nocstar) Act(op uint8, arg any) {
	switch op {
	case nocOpRetry:
		b := arg.(*retryBatch)
		for _, req := range b.reqs {
			n.retries = n.enqueue(n.retries, req)
		}
		b.reqs = b.reqs[:0]
		b.next = n.batchFree
		n.batchFree = b
	case nocOpGrant:
		// Recycle before delivering: the continuation may request a new
		// path immediately and reuse this object.
		req := arg.(*setupReq)
		h, hop, harg, tr := req.h, req.op, req.arg, req.traversal
		n.freeReq(req)
		h.PathGranted(hop, harg, tr)
	case nocOpArbitrate:
		n.arbitrate()
	}
}

// arbitrate resolves every setup request issued in the current cycle.
// Requests are considered in static-priority order, ties in enqueue
// order; a request wins only if every link of its path is free for its
// entire hold window. Losers retry next cycle. The static priority of a
// source node is its distance, lower is better, from a favoured node
// that rotates round-robin every PriorityRotationPeriod cycles, which
// guarantees starvation freedom.
//
// The round's losers travel to the next cycle together, in one retry
// event, rather than one event each. That is exact — every grant and
// every statistic is what per-request retry events would produce —
// because a retry does nothing but re-enqueue its request, and the only
// events this round schedules between its retries are grant deliveries,
// whose continuations in the simulator never request a path
// synchronously, nor register a finalizer that does (System.PathGranted
// only schedules events; such a finalizer would run ahead of or behind
// this fabric's next arbitration depending on where the first retry
// enqueued). So the batch
// re-enqueues the losers in arbitration order at the same place in the
// next cycle's enqueue order as the individual retries held: after every
// enqueue by events scheduled before this round, and before every
// enqueue by events scheduled after it. (A continuation that did request
// synchronously would now enqueue ahead of the round's losers instead of
// among them: still a valid arbitration, just a different one.) The
// engine sees one event per denying round instead of one per denial,
// which keeps host time and wheel-bucket memory independent of how many
// requests are waiting.
//
// A batch leaves in arbitration order, so unless the priorities rotated
// in between, or two rounds' batches landed in one cycle, the retries
// already arrive sorted by key. Only the new arrivals need sorting, and
// the two lists merge in one pass.
func (n *Nocstar) arbitrate() {
	n.arbScheduled = false
	now := n.eng.Now()
	nodes := n.geo.Nodes()
	rot := int(now/PriorityRotationPeriod) % nodes
	setKeys(n.arrivals, rot, nodes)
	setKeys(n.retries, rot, nodes)
	// Rounds bring few new requests (tens), where insertion sort wins
	// outright.
	a := n.arrivals
	for i := 1; i < len(a); i++ {
		req := a[i]
		j := i - 1
		for j >= 0 && a[j].key > req.key {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = req
	}
	r := n.retries
	if !slices.IsSortedFunc(r, byKey) {
		slices.SortFunc(r, byKey)
	}
	order := n.order[:0]
	i, j := 0, 0
	for i < len(a) && j < len(r) {
		if a[i].key < r[j].key {
			order = append(order, a[i])
			i++
		} else {
			order = append(order, r[j])
			j++
		}
	}
	order = append(append(order, a[i:]...), r[j:]...)
	// Granting only schedules events, so nothing enqueues while the
	// round resolves; a later round this cycle starts from empty lists.
	n.arrivals, n.retries, n.enqueued = a[:0], r[:0], 0

	var denied *retryBatch
	for _, req := range order {
		n.stats.SetupAttempts++
		if n.granted(req, now) {
			continue
		}
		// Denied: retry at the end of the next cycle.
		n.stats.Retries++
		if denied == nil {
			denied = n.batchFree
			if denied == nil {
				denied = &retryBatch{}
			} else {
				n.batchFree = denied.next
				denied.next = nil
			}
		}
		denied.reqs = append(denied.reqs, req)
	}
	if denied != nil {
		n.eng.ScheduleAct(1, n, nocOpRetry, denied)
	}
	n.order = order[:0]
}

// setKeys puts each request's static priority under rotation offset rot
// above its enqueue index.
func setKeys(reqs []*setupReq, rot, nodes int) {
	for _, req := range reqs {
		prio := int(req.src) - rot
		if prio < 0 {
			prio += nodes
		}
		req.key = uint64(prio)<<32 | req.key&math.MaxUint32
	}
}

// byKey orders requests by arbitration key.
func byKey(x, y *setupReq) int { return cmp.Compare(x.key, y.key) }

// heldPast returns the reservation of the first link of r held after
// cycle now, or 0 when every link of r is free.
func (n *Nocstar) heldPast(r linkRun, now engine.Cycle) engine.Cycle {
	for i, l := int32(0), r.first; i < r.n; i, l = i+1, l+r.stride {
		if u := n.reservedUntil[l]; u > now {
			return u
		}
	}
	return 0
}

// reserve holds every link of r through cycle until.
func (n *Nocstar) reserve(r linkRun, until engine.Cycle) {
	for i, l := int32(0), r.first; i < r.n; i, l = i+1, l+r.stride {
		n.reservedUntil[l] = until
	}
}

// granted attempts to reserve the request's links for [now+1, now+hold].
// On success it schedules the grant delivery for the next cycle.
//
// A denial is memoized exactly. Without a Release, a link's reservation
// never decreases: reserve sets now+hold only on links free through
// now. So while no Release has freed a link since the denial, the link
// that denied the request is still held through its reservation then,
// and before that cycle the request is denied again without a scan.
// Arbitration order and every statistic are unchanged.
func (n *Nocstar) granted(req *setupReq, now engine.Cycle) bool {
	if !n.cfg.Ideal {
		if now < req.blockedUntil && req.blockedGen == n.releaseGen {
			return false
		}
		r := req.route
		u := n.heldPast(r.x, now)
		if u == 0 {
			u = n.heldPast(r.y, now)
		}
		if u != 0 {
			req.blockedUntil, req.blockedGen = u, n.releaseGen
			return false
		}
		until := now + req.hold
		n.reserve(r.x, until)
		n.reserve(r.y, until)
		if n.observer != nil {
			n.observer.CircuitGranted(req.src, req.dst, now, until)
		}
	}
	n.stats.Messages++
	setupDelay := uint64(now-req.firstTry) + 1
	n.stats.TotalSetupDelay += setupDelay
	if setupDelay == 1 {
		n.stats.FirstTryGrants++
	}
	traversal := n.TraversalCycles(req.route.hops())
	n.stats.TotalTraversal += uint64(traversal)
	req.traversal = traversal
	if n.setupHist != nil {
		n.setupHist.Observe(setupDelay)
	}
	if n.tracer != nil {
		n.tracer.Emit(metrics.TracePathSetup, uint64(req.firstTry), setupDelay,
			int32(req.src), int32(req.dst))
		n.tracer.Emit(metrics.TracePathGrant, uint64(now+1), 0,
			int32(req.src), int32(req.dst))
	}
	n.eng.ScheduleAct(1, n, nocOpGrant, req)
	return true
}

// Release frees the links of the XY path from src to dst that are still
// held by the caller's own grant, identified by its reservation window:
// until is the grant's reservedUntil value (grant-delivery cycle - 1 +
// hold). RoundTripAcquire holders call this when the response has been
// consumed earlier than the conservatively reserved window.
//
// The per-grant match matters: reservations on a link strictly grow (a
// new grant requires the old one to have expired and always reserves
// further into the future), so reservedUntil[l] == until identifies the
// caller's hold exactly. A link whose reservation has moved past until
// belongs to a later grant on a shared segment and must not be rewound —
// the unconditional rewind this replaces let a late round-trip release
// clobber another message's circuit, allowing overlapping paths.
func (n *Nocstar) Release(src, dst NodeID, until engine.Cycle) {
	now := n.eng.Now()
	n.stats.Releases++
	r := n.route(src, dst)
	n.releaseRun(r.x, now, until)
	n.releaseRun(r.y, now, until)
	if n.observer != nil && !n.cfg.Ideal {
		n.observer.CircuitReleased(src, dst, now, until)
	}
	if n.tracer != nil {
		n.tracer.Emit(metrics.TraceRelease, uint64(now), 0, int32(src), int32(dst))
	}
}

// releaseRun frees the links of r still held by the grant whose window
// ends at until (see Release).
func (n *Nocstar) releaseRun(r linkRun, now, until engine.Cycle) {
	for i, l := int32(0), r.first; i < r.n; i, l = i+1, l+r.stride {
		switch {
		case n.reservedUntil[l] <= now:
			// Already expired or never held; nothing to free.
		case n.legacyRelease || n.reservedUntil[l] == until:
			// The legacy arm is the PR 3 bug: rewind whatever is held,
			// even a later grant's reservation on a shared segment.
			// Either way a reservation moves backwards, so every denial
			// memo is void.
			n.reservedUntil[l] = now
			n.releaseGen++
			n.stats.ReleasedLinks++
		default:
			// A later grant owns this link now.
			n.stats.ForeignLinks++
		}
	}
}
