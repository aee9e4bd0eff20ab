package noc

import (
	"fmt"
	"slices"
	"testing"

	"nocstar/internal/engine"
)

// fn adapts a closure to engine.Actor, and onGrant a grant continuation
// to GrantHandler, so a test can schedule and request paths with inline
// code.
type (
	fn      func()
	onGrant func(traversal int)
)

func (f fn) Act(uint8, any)                                 { f() }
func (g onGrant) PathGranted(_ uint8, _ any, traversal int) { g(traversal) }

// after schedules f delay cycles from now.
func after(eng *engine.Engine, delay engine.Cycle, f func()) {
	eng.ScheduleAct(delay, fn(f), 0, nil)
}

// request asks ns for the path from src to dst, running f on grant.
func request(ns *Nocstar, src, dst NodeID, hold engine.Cycle, f func(traversal int)) {
	ns.RequestPathTo(src, dst, hold, onGrant(f), 0, nil)
}

// appendRun appends the links of r, in order, to links.
func appendRun(links []LinkID, r linkRun) []LinkID {
	for i, l := int32(0), r.first; i < r.n; i, l = i+1, l+r.stride {
		links = append(links, LinkID(l))
	}
	return links
}

// TestRouteMatchesXYPath checks that the fabric's two-run routes
// enumerate exactly Geometry.XYPath: every pair on the small grids, and
// sampled pairs on the 32x32 one.
func TestRouteMatchesXYPath(t *testing.T) {
	for _, g := range routeTestGrids {
		ns := NewNocstar(engine.New(), NocstarConfig{Geometry: g})
		check := func(src, dst NodeID) {
			r := ns.route(src, dst)
			got := appendRun(appendRun(nil, r.x), r.y)
			want := g.XYPath(src, dst)
			if r.hops() != len(want) || !slices.Equal(got, want) {
				t.Fatalf("%dx%d %d->%d: route %v (hops %d), XYPath %v", g.Rows, g.Cols, src, dst, got, r.hops(), want)
			}
		}
		if g.Nodes() <= 64 {
			for src := NodeID(0); int(src) < g.Nodes(); src++ {
				for dst := NodeID(0); int(dst) < g.Nodes(); dst++ {
					check(src, dst)
				}
			}
			continue
		}
		rng := engine.NewRand(int64(g.Nodes()))
		for i := 0; i < 20000; i++ {
			check(NodeID(rng.Intn(g.Nodes())), NodeID(rng.Intn(g.Nodes())))
		}
	}
}

func newFabric(t *testing.T, n, hpc int, ideal bool) (*engine.Engine, *Nocstar) {
	t.Helper()
	eng := engine.New()
	ns := NewNocstar(eng, NocstarConfig{Geometry: GridFor(n), HPCmax: hpc, Ideal: ideal})
	return eng, ns
}

func TestTraversalCycles(t *testing.T) {
	_, ns := newFabric(t, 64, 8, false)
	cases := []struct{ hops, want int }{
		{0, 0}, {1, 1}, {8, 1}, {9, 2}, {14, 2}, {16, 2}, {17, 3},
	}
	for _, c := range cases {
		if got := ns.TraversalCycles(c.hops); got != c.want {
			t.Fatalf("TraversalCycles(%d) = %d, want %d", c.hops, got, c.want)
		}
	}
	// HPCmax=0 means whole chip in one cycle.
	_, ns0 := newFabric(t, 64, 0, false)
	if ns0.TraversalCycles(14) != 1 {
		t.Fatal("HPCmax=0 should give single-cycle traversal")
	}
}

func TestSingleRequestGrantTiming(t *testing.T) {
	eng, ns := newFabric(t, 16, 16, false)
	var grantedAt engine.Cycle
	var traversal int
	after(eng, 5, func() {
		request(ns, 0, 15, ns.HoldCyclesOneWay(0, 15), func(tr int) {
			grantedAt = eng.Now()
			traversal = tr
		})
	})
	eng.Run()
	// Fig. 10 timeline: setup during cycle 5, traversal begins cycle 6.
	if grantedAt != 6 {
		t.Fatalf("granted at %d, want 6", grantedAt)
	}
	if traversal != 1 {
		t.Fatalf("traversal = %d, want 1 (6 hops, HPC 16)", traversal)
	}
	st := ns.Stats()
	if st.Messages != 1 || st.FirstTryGrants != 1 || st.TotalSetupDelay != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConflictingRequestsSerialize(t *testing.T) {
	eng, ns := newFabric(t, 16, 16, false)
	// Node 0 and node 0's neighbour both need link 1->2 on row 0:
	// paths 0->3 and 1->3 share links.
	var grants []engine.Cycle
	after(eng, 1, func() {
		request(ns, 0, 3, ns.HoldCyclesOneWay(0, 3), func(int) {
			grants = append(grants, eng.Now())
		})
		request(ns, 1, 3, ns.HoldCyclesOneWay(1, 3), func(int) {
			grants = append(grants, eng.Now())
		})
	})
	eng.Run()
	if len(grants) != 2 {
		t.Fatalf("grants = %v", grants)
	}
	if grants[0] == grants[1] {
		t.Fatal("conflicting paths granted in the same cycle")
	}
	st := ns.Stats()
	if st.FirstTryGrants != 1 {
		t.Fatalf("first-try grants = %d, want 1", st.FirstTryGrants)
	}
	if st.Messages != 2 {
		t.Fatalf("messages = %d", st.Messages)
	}
}

func TestDisjointPathsShareCycle(t *testing.T) {
	eng, ns := newFabric(t, 16, 16, false)
	// Row 0 and row 3 paths are disjoint: both grant in the same cycle.
	var grants []engine.Cycle
	after(eng, 1, func() {
		request(ns, 0, 3, ns.HoldCyclesOneWay(0, 3), func(int) {
			grants = append(grants, eng.Now())
		})
		request(ns, 12, 15, ns.HoldCyclesOneWay(12, 15), func(int) {
			grants = append(grants, eng.Now())
		})
	})
	eng.Run()
	if len(grants) != 2 || grants[0] != grants[1] {
		t.Fatalf("disjoint paths did not grant together: %v", grants)
	}
	if ns.Stats().FirstTryGrants != 2 {
		t.Fatalf("stats = %+v", ns.Stats())
	}
}

func TestNoPartialPathReservation(t *testing.T) {
	eng, ns := newFabric(t, 16, 16, false)
	// First request holds 0->1->2->3 for 10 cycles. A second request
	// 1->2 (subset) must be denied while held; a third request 4->7 on
	// another row must be unaffected.
	after(eng, 1, func() {
		request(ns, 0, 3, 10, func(int) {})
	})
	var secondGrant, thirdGrant engine.Cycle
	after(eng, 2, func() {
		request(ns, 1, 3, ns.HoldCyclesOneWay(1, 3), func(int) { secondGrant = eng.Now() })
		request(ns, 4, 7, ns.HoldCyclesOneWay(4, 7), func(int) { thirdGrant = eng.Now() })
	})
	eng.Run()
	if thirdGrant != 3 {
		t.Fatalf("independent path granted at %d, want 3", thirdGrant)
	}
	// Held through cycle 11 (granted end of cycle 1, hold 10 from cycle
	// 2): next winnable arbitration is end of cycle 11, grant cycle 12.
	if secondGrant < 12 {
		t.Fatalf("overlapping path granted at %d while links held", secondGrant)
	}
}

func TestIdealModeNeverBlocks(t *testing.T) {
	eng, ns := newFabric(t, 16, 16, true)
	var grants []engine.Cycle
	after(eng, 1, func() {
		for i := 0; i < 8; i++ {
			request(ns, 0, 3, 100, func(int) { grants = append(grants, eng.Now()) })
		}
	})
	eng.Run()
	if len(grants) != 8 {
		t.Fatalf("grants = %d", len(grants))
	}
	for _, g := range grants {
		if g != 2 {
			t.Fatalf("ideal grant at %d, want 2", g)
		}
	}
}

func TestReleaseFreesLinks(t *testing.T) {
	eng, ns := newFabric(t, 16, 16, false)
	after(eng, 1, func() {
		// Arbitrated end of cycle 1: links reserved through 1+1000.
		request(ns, 0, 3, 1000, func(int) {
			// Holder releases early at cycle 5, identifying its own
			// reservation window.
			eng.AtAct(5, fn(func() { ns.Release(0, 3, 1001) }), 0, nil)
		})
	})
	var grant engine.Cycle
	after(eng, 3, func() {
		request(ns, 0, 3, 1, func(int) { grant = eng.Now() })
	})
	eng.Run()
	if grant != 6 {
		t.Fatalf("post-release grant at %d, want 6", grant)
	}
	st := ns.Stats()
	if st.Releases != 1 || st.ReleasedLinks == 0 || st.ForeignLinks != 0 {
		t.Fatalf("release stats = %+v", st)
	}
}

// TestLateReleaseDoesNotClobber is the regression test for the
// link-release clobbering bug: a round-trip holder whose release fires
// after its reservation window expired must not rewind reservations a
// *different* granted message now holds on the shared links.
//
// Timeline (path 0->3, same links throughout):
//
//	cycle 1:  A requests, hold 20 -> granted end of cycle 1, links
//	          reserved through cycle 21.
//	cycle 22: B requests, hold 20 -> A's reservation has expired, B is
//	          granted, links reserved through cycle 42.
//	cycle 30: A's release finally arrives (a queued response made the
//	          round trip outlast the conservative hold). A identifies its
//	          reservation window (21); the links now carry B's (42), so
//	          nothing may be freed.
//	cycle 31: C requests, hold 1. With the fix C waits for B: first
//	          winnable arbitration is end of cycle 42, grant cycle 43.
//	          The old unconditional rewind freed B's links at cycle 30
//	          and C was granted at cycle 32, overlapping B's circuit.
func TestLateReleaseDoesNotClobber(t *testing.T) {
	eng, ns := newFabric(t, 16, 16, false)
	after(eng, 1, func() {
		request(ns, 0, 3, 20, func(int) {}) // A: reserved through 21
	})
	after(eng, 22, func() {
		request(ns, 0, 3, 20, func(int) {}) // B: reserved through 42
	})
	after(eng, 30, func() {
		ns.Release(0, 3, 21) // A's late release
	})
	var cGrant engine.Cycle
	after(eng, 31, func() {
		request(ns, 0, 3, 1, func(int) { cGrant = eng.Now() })
	})
	eng.Run()
	if cGrant != 43 {
		t.Fatalf("C granted at %d, want 43 (B's circuit must stay reserved through 42)", cGrant)
	}
	st := ns.Stats()
	if st.Releases != 1 || st.ReleasedLinks != 0 || st.ForeignLinks == 0 {
		t.Fatalf("release stats = %+v", st)
	}
}

// TestDenialMemoWakesOnRelease pins the exactness of the denial memo
// (see granted) against the refFabric oracle, which scans every path
// on every attempt. Round-trip holder A reserves 0->3 through cycle
// 1001; B (1->3) and D (2->3) are denied on its links and memoize that
// reservation. An unrelated release that frees a link elsewhere must
// not wake them early, and A's early release at cycle 40 must: both
// contend for the freed links at the end of cycle 40, and the loser
// follows the winner's one-cycle hold. With the legacy release, a late
// release that rewinds a later grant's links wakes its waiter too.
func TestDenialMemoWakesOnRelease(t *testing.T) {
	scenario := func(eng *engine.Engine, fab diffFabric) map[string]engine.Cycle {
		grants := map[string]engine.Cycle{}
		req := func(name string, at engine.Cycle, src, dst NodeID, hold engine.Cycle) {
			after(eng, at, func() {
				fab.RequestPathTo(src, dst, hold, onGrant(func(int) { grants[name] = eng.Now() }), 0, nil)
			})
		}
		req("A", 1, 0, 3, 1000) // reserved through 1001
		req("C", 2, 4, 7, 100)  // row 1, disjoint: reserved through 102
		req("B", 3, 1, 3, 1)
		req("D", 20, 2, 3, 1)
		after(eng, 10, func() { fab.Release(4, 7, 102) }) // frees C's links only
		after(eng, 40, func() { fab.Release(0, 3, 1001) })
		eng.Run()
		return grants
	}
	eng := engine.New()
	ns := NewNocstar(eng, NocstarConfig{Geometry: GridFor(16), HPCmax: 4})
	got := scenario(eng, ns)
	eng = engine.New()
	ref := newRefFabric(eng, GridFor(16), 4)
	want := scenario(eng, ref)
	for _, name := range []string{"A", "B", "C", "D"} {
		if got[name] != want[name] {
			t.Fatalf("%s granted at cycle %d, oracle %d (all: %v, oracle %v)", name, got[name], want[name], got, want)
		}
	}
	if got["B"] != 41 && got["D"] != 41 || got["B"] == got["D"] {
		t.Fatalf("B at %d and D at %d: one must win right after the release at 40", got["B"], got["D"])
	}
	if gs, ws := ns.Stats(), ref.Stats(); gs != ws {
		t.Fatalf("stats %+v, oracle %+v", gs, ws)
	}

	// The legacy arm frees too: W waits on B's reservation (through 42),
	// and A's late release at 30 rewinds it, so W is granted at 31.
	eng, ns = newFabric(t, 16, 16, false)
	ns.SetLegacyReleaseForTest(true)
	after(eng, 1, func() { request(ns, 0, 3, 20, func(int) {}) })  // A: through 21
	after(eng, 22, func() { request(ns, 0, 3, 20, func(int) {}) }) // B: through 42
	var w engine.Cycle
	after(eng, 25, func() { request(ns, 0, 3, 1, func(int) { w = eng.Now() }) })
	after(eng, 30, func() { ns.Release(0, 3, 21) })
	eng.Run()
	if w != 31 {
		t.Fatalf("waiter granted at %d after the legacy rewind at 30, want 31", w)
	}
}

func TestPriorityRotationPreventsStarvation(t *testing.T) {
	// Node 0 (statically favoured at rotation 0) floods the fabric with
	// back-to-back requests over the same path; node 1's overlapping
	// request must still eventually win thanks to round-robin rotation.
	eng, ns := newFabric(t, 16, 16, false)
	stop := engine.Cycle(3 * PriorityRotationPeriod)
	var flood func()
	flood = func() {
		if eng.Now() >= stop {
			return
		}
		request(ns, 0, 3, 2, func(int) {
			flood()
		})
	}
	var victimGranted bool
	after(eng, 1, flood)
	after(eng, 10, func() {
		request(ns, 1, 3, 1, func(int) { victimGranted = true })
	})
	eng.Run()
	if !victimGranted {
		t.Fatal("low-priority requester starved despite rotation")
	}
}

func TestLocalRequestPanics(t *testing.T) {
	eng, ns := newFabric(t, 16, 16, false)
	defer func() {
		if recover() == nil {
			t.Fatal("RequestPathTo(src==dst) did not panic")
		}
	}()
	_ = eng
	request(ns, 3, 3, 1, func(int) {})
}

func TestStatsAverages(t *testing.T) {
	var st NocstarStats
	if st.AvgSetupCycles() != 0 || st.NoContentionFraction() != 0 || st.AvgNetworkLatency() != 0 {
		t.Fatal("empty stats should be zero")
	}
	st = NocstarStats{Messages: 4, FirstTryGrants: 3, TotalSetupDelay: 6, TotalTraversal: 4}
	if st.AvgSetupCycles() != 1.5 {
		t.Fatalf("AvgSetupCycles = %v", st.AvgSetupCycles())
	}
	if st.NoContentionFraction() != 0.75 {
		t.Fatalf("NoContentionFraction = %v", st.NoContentionFraction())
	}
	if st.AvgNetworkLatency() != 2.5 {
		t.Fatalf("AvgNetworkLatency = %v", st.AvgNetworkLatency())
	}
}

func TestMeshLatency(t *testing.T) {
	g := Geometry{Rows: 4, Cols: 4}
	if got := MeshLatency(g.Hops(0, 15)); got != 12 {
		t.Fatalf("mesh 6-hop latency = %d, want 12 (2/hop)", got)
	}
	if MeshLatency(g.Hops(5, 5)) != 0 {
		t.Fatal("local mesh latency != 0")
	}
	if MeshLatency(3) != 6 {
		t.Fatalf("MeshLatency(3) = %d", MeshLatency(3))
	}
}

func TestSMARTLatency(t *testing.T) {
	g := Geometry{Rows: 8, Cols: 8}
	if got := SMARTLatency(g.Hops(0, 63)); got != 1+2 {
		t.Fatalf("SMART 14-hop latency = %d, want 3", got)
	}
	if SMARTLatency(0) != 0 {
		t.Fatal("SMART local latency != 0")
	}
	if SMARTLatency(8) != 2 {
		t.Fatalf("SMART 8-hop latency = %d, want 2", SMARTLatency(8))
	}
}

func TestDesignSpaceTable1(t *testing.T) {
	points := DesignSpace(64)
	verdicts := Classify(points)
	byName := map[string]DesignVerdicts{}
	for _, v := range verdicts {
		byName[v.Name] = v
	}
	// The paper's Table I rows.
	checks := []struct {
		name                            string
		latency, bandwidth, area, power bool // true = favourable
	}{
		{"Bus", true, false, true, false},
		{"Mesh", false, true, false, false},
		{"FBFly-wide", true, true, false, false},
		{"FBFly-narrow", false, true, false, false},
		{"SMART", true, true, false, false},
		{"NOCSTAR", true, true, true, true},
	}
	fav := func(v Verdict) bool { return v == Good || v == VeryGood }
	for _, c := range checks {
		v, ok := byName[c.name]
		if !ok {
			t.Fatalf("design %q missing", c.name)
		}
		if fav(v.Latency) != c.latency || fav(v.Bandwidth) != c.bandwidth ||
			fav(v.Area) != c.area || fav(v.Power) != c.power {
			t.Fatalf("%s verdicts = lat %v bw %v area %v pow %v, want %v %v %v %v",
				c.name, v.Latency, v.Bandwidth, v.Area, v.Power,
				c.latency, c.bandwidth, c.area, c.power)
		}
	}
	// FBFly-wide must be very good on bandwidth and very poor on area,
	// matching the paper's double marks.
	if byName["FBFly-wide"].Bandwidth != VeryGood || byName["FBFly-wide"].Area != VeryPoor {
		t.Fatalf("FBFly-wide double verdicts wrong: %+v", byName["FBFly-wide"])
	}
}

func TestVerdictString(t *testing.T) {
	if Good.String() != "+" || VeryPoor.String() != "--" || Poor.String() != "-" || VeryGood.String() != "++" {
		t.Fatal("verdict strings wrong")
	}
}

// TestRetryEventsIndependentOfWaiters pins the cost of waiting: n
// requests blocked for k cycles take at most k retry events, not n*k.
// On a 1x(n+1) row a blocker holds every east link for k cycles; the n
// single-hop requests under it are pairwise disjoint, so all of them are
// denied in every round until the blocker's window ends, then all grant
// together.
func TestRetryEventsIndependentOfWaiters(t *testing.T) {
	const n, k = 64, 100
	eng := engine.New()
	ns := NewNocstar(eng, NocstarConfig{Geometry: Geometry{Rows: 1, Cols: n + 1}})
	after(eng, 1, func() {
		// Arbitrated at the end of cycle 1: held through cycle 1+k.
		request(ns, 0, NodeID(n), k, func(int) {})
	})
	granted := 0
	after(eng, 2, func() {
		for i := 0; i < n; i++ {
			request(ns, NodeID(i), NodeID(i+1), 1, func(int) { granted++ })
		}
	})
	eng.Run()

	// Rounds at the end of cycles 2..k deny every waiter; the round at
	// the end of cycle k+1 grants them all.
	const deniedRounds = k - 1
	if st := ns.Stats(); granted != n || st.Retries != n*deniedRounds {
		t.Fatalf("granted %d, retries %d; want %d, %d", granted, st.Retries, n, n*deniedRounds)
	}
	// Everything the engine processed apart from retry events: the two
	// scheduled request closures, one arbitration finalizer per round
	// (the blocker's, the denying rounds, the granting round), and one
	// grant delivery per message.
	const other = 2 + (1 + deniedRounds + 1) + (n + 1)
	if retryEvents := eng.Processed() - other; retryEvents > k {
		t.Fatalf("%d waiters blocked for %d cycles cost %d retry events, want at most %d",
			n, k, retryEvents, k)
	}
}

// refFabric is the NOCSTAR arbiter with one retry event per denied
// request, the way the fabric worked before denied requests travelled
// in one batch per round. It is a test oracle for
// TestBatchedRetriesMatchPerRequest, not a second fabric: it routes with
// Geometry.XYPath and keeps only what arbitration and Release need.
type refFabric struct {
	eng           *engine.Engine
	geo           Geometry
	hpc           int
	reservedUntil []engine.Cycle
	pending       []*refReq
	arbScheduled  bool
	stats         NocstarStats
}

type refReq struct {
	src, dst  NodeID
	links     []LinkID
	hold      engine.Cycle
	firstTry  engine.Cycle
	prio      int
	h         GrantHandler
	op        uint8
	arg       any
	traversal int
}

func newRefFabric(eng *engine.Engine, g Geometry, hpc int) *refFabric {
	return &refFabric{eng: eng, geo: g, hpc: hpc, reservedUntil: make([]engine.Cycle, g.NumLinks())}
}

func (f *refFabric) Stats() NocstarStats { return f.stats }

func (f *refFabric) traversalCycles(h int) int {
	if h <= 0 {
		return 0
	}
	if f.hpc <= 0 {
		return 1
	}
	return (h + f.hpc - 1) / f.hpc
}

func (f *refFabric) HoldCyclesOneWay(src, dst NodeID) engine.Cycle {
	return engine.Cycle(f.traversalCycles(f.geo.Hops(src, dst)))
}

func (f *refFabric) RequestPathTo(src, dst NodeID, hold engine.Cycle, h GrantHandler, op uint8, arg any) {
	f.enqueue(&refReq{src: src, dst: dst, links: f.geo.XYPath(src, dst), hold: hold,
		firstTry: f.eng.Now(), h: h, op: op, arg: arg})
}

func (f *refFabric) enqueue(req *refReq) {
	f.pending = append(f.pending, req)
	if !f.arbScheduled {
		f.arbScheduled = true
		f.eng.AtEndOfCycle(f, refOpArbitrate, nil)
	}
}

const (
	refOpRetry uint8 = iota
	refOpGrant
	refOpArbitrate
)

func (f *refFabric) Act(op uint8, arg any) {
	switch op {
	case refOpRetry:
		f.enqueue(arg.(*refReq))
	case refOpGrant:
		req := arg.(*refReq)
		req.h.PathGranted(req.op, req.arg, req.traversal)
	case refOpArbitrate:
		f.arbitrate()
	}
}

func (f *refFabric) arbitrate() {
	f.arbScheduled = false
	reqs := f.pending
	f.pending = nil
	now := f.eng.Now()
	nodes := f.geo.Nodes()
	rot := int(now/PriorityRotationPeriod) % nodes
	for _, req := range reqs {
		req.prio = (int(req.src) - rot + nodes) % nodes
	}
	for i := 1; i < len(reqs); i++ {
		req := reqs[i]
		j := i - 1
		for j >= 0 && reqs[j].prio > req.prio {
			reqs[j+1] = reqs[j]
			j--
		}
		reqs[j+1] = req
	}
	for _, req := range reqs {
		f.stats.SetupAttempts++
		if f.granted(req, now) {
			continue
		}
		f.stats.Retries++
		f.eng.ScheduleAct(1, f, refOpRetry, req)
	}
}

func (f *refFabric) granted(req *refReq, now engine.Cycle) bool {
	for _, l := range req.links {
		if f.reservedUntil[l] > now {
			return false
		}
	}
	for _, l := range req.links {
		f.reservedUntil[l] = now + req.hold
	}
	f.stats.Messages++
	setupDelay := uint64(now-req.firstTry) + 1
	f.stats.TotalSetupDelay += setupDelay
	if setupDelay == 1 {
		f.stats.FirstTryGrants++
	}
	req.traversal = f.traversalCycles(len(req.links))
	f.stats.TotalTraversal += uint64(req.traversal)
	f.eng.ScheduleAct(1, f, refOpGrant, req)
	return true
}

func (f *refFabric) Release(src, dst NodeID, until engine.Cycle) {
	now := f.eng.Now()
	f.stats.Releases++
	for _, l := range f.geo.XYPath(src, dst) {
		switch {
		case f.reservedUntil[l] <= now:
		case f.reservedUntil[l] == until:
			f.reservedUntil[l] = now
			f.stats.ReleasedLinks++
		default:
			f.stats.ForeignLinks++
		}
	}
}

// diffFabric is what diffTraffic needs of a fabric: the production
// Nocstar and the refFabric oracle both provide it.
type diffFabric interface {
	RequestPathTo(src, dst NodeID, hold engine.Cycle, h GrantHandler, op uint8, arg any)
	Release(src, dst NodeID, until engine.Cycle)
	HoldCyclesOneWay(src, dst NodeID) engine.Cycle
	Stats() NocstarStats
}

// diffMsg is one message of the differential traffic.
type diffMsg struct {
	id        int
	src, dst  NodeID
	hold      engine.Cycle
	until     engine.Cycle // round trip: the grant's reservation window end
	roundTrip bool         // hold a conservative window, then Release it
	reply     bool         // request the reverse path one cycle after the grant
}

// diffTraffic offers uniform-random traffic to a fabric and records the
// cycle each message was granted. Every random draw happens either at
// injection or at a grant, so two fabrics that grant identically see
// identical traffic.
type diffTraffic struct {
	eng     *engine.Engine
	fab     diffFabric
	rng     *engine.Rand
	nodes   int
	rate    float64
	stop    engine.Cycle
	granted []engine.Cycle // by message id
	// At cycle burstAt every node also requests burst paths at once, so
	// sources hold several waiting requests; bursts keeps them.
	burstAt engine.Cycle
	burst   int
	bursts  []*diffMsg
}

const (
	trafficTick uint8 = iota
	trafficReply
	trafficRelease
	trafficLate
)

func (d *diffTraffic) request(src, dst NodeID, isReply bool) *diffMsg {
	m := &diffMsg{id: len(d.granted), src: src, dst: dst, hold: d.fab.HoldCyclesOneWay(src, dst)}
	d.granted = append(d.granted, 0)
	switch d.rng.Intn(3) {
	case 0:
		m.roundTrip = true
		m.hold = 2*m.hold + engine.Cycle(d.rng.Intn(8))
	case 1:
		m.reply = !isReply
	}
	d.fab.RequestPathTo(src, dst, m.hold, d, 0, m)
	return m
}

// randomDst draws a node other than src.
func (d *diffTraffic) randomDst(src NodeID) NodeID {
	dst := NodeID(d.rng.Intn(d.nodes - 1))
	if dst >= src {
		dst++
	}
	return dst
}

func (d *diffTraffic) Act(op uint8, arg any) {
	switch op {
	case trafficTick:
		for node := 0; node < d.nodes; node++ {
			if d.rng.Float64() >= d.rate {
				continue
			}
			src := NodeID(node)
			d.request(src, d.randomDst(src), false)
		}
		if d.burst > 0 && d.eng.Now() == d.burstAt {
			for node := 0; node < d.nodes; node++ {
				src := NodeID(node)
				for k := 0; k < d.burst; k++ {
					d.bursts = append(d.bursts, d.request(src, d.randomDst(src), true))
				}
			}
		}
		// Late requests come from an end-of-cycle finalizer. When this
		// tick requested, the fabric's arbitration finalizer is already
		// registered, so the late requests open a second round in the
		// cycle, whose losers reach the next cycle as a second retry
		// batch. The tick is each cycle's first event in both fabrics,
		// so the rounds split the same way in both.
		d.eng.AtEndOfCycle(d, trafficLate, nil)
		if d.eng.Now() < d.stop {
			d.eng.ScheduleAct(1, d, trafficTick, nil)
		}
	case trafficLate:
		for node := 0; node < d.nodes; node++ {
			if d.rng.Float64() >= d.rate/2 {
				continue
			}
			src := NodeID(node)
			d.request(src, d.randomDst(src), false)
		}
	case trafficReply:
		m := arg.(*diffMsg)
		d.request(m.dst, m.src, true)
	case trafficRelease:
		m := arg.(*diffMsg)
		d.fab.Release(m.src, m.dst, m.until)
	}
}

func (d *diffTraffic) PathGranted(op uint8, arg any, traversal int) {
	m := arg.(*diffMsg)
	now := d.eng.Now()
	d.granted[m.id] = now
	if m.roundTrip {
		// Release anywhere from at once to a few cycles after the
		// window ends, so both early frees and late (foreign) releases
		// occur.
		m.until = now - 1 + m.hold
		d.eng.ScheduleAct(engine.Cycle(d.rng.Intn(int(m.hold)+4)), d, trafficRelease, m)
	}
	if m.reply {
		d.eng.ScheduleAct(1, d, trafficReply, m)
	}
}

func runDiffTraffic(fab func(*engine.Engine) diffFabric, nodes int, rate float64, cycles engine.Cycle, seed int64) *diffTraffic {
	return runDiffBurst(fab, nodes, rate, cycles, seed, 0, 0)
}

// runDiffBurst is runDiffTraffic with burst extra requests from every
// node at cycle burstAt.
func runDiffBurst(fab func(*engine.Engine) diffFabric, nodes int, rate float64, cycles engine.Cycle, seed int64, burstAt engine.Cycle, burst int) *diffTraffic {
	eng := engine.New()
	d := &diffTraffic{eng: eng, fab: fab(eng), rng: engine.NewRand(seed), nodes: nodes, rate: rate, stop: cycles,
		burstAt: burstAt, burst: burst}
	eng.ScheduleAct(1, d, trafficTick, nil)
	eng.Run()
	return d
}

// sameGrants fails the test unless got granted every message in the
// same cycle as want and ends with the same statistics.
func sameGrants(t *testing.T, name string, got, want *diffTraffic) {
	t.Helper()
	if len(got.granted) != len(want.granted) {
		t.Fatalf("%s: %d messages, oracle %d", name, len(got.granted), len(want.granted))
	}
	for id := range want.granted {
		if got.granted[id] != want.granted[id] {
			t.Fatalf("%s: message %d granted at cycle %d, oracle %d",
				name, id, got.granted[id], want.granted[id])
		}
	}
	if gs, ws := got.fab.Stats(), want.fab.Stats(); gs != ws {
		t.Fatalf("%s: stats %+v, oracle %+v", name, gs, ws)
	}
}

// TestBatchedRetriesMatchPerRequest is the differential test of retry
// batching and of the merged arbitration order: under random traffic
// with round-trip releases, grant continuations that request again one
// cycle later, and late requests from an end-of-cycle finalizer (two
// arbitration rounds, so two retry batches next cycle), the fabric
// grants every
// message in the same cycle, and ends with the same statistics, as the
// per-request-retry oracle, which sorts every round anew.
func TestBatchedRetriesMatchPerRequest(t *testing.T) {
	// Each case injects about this many messages; at 16 nodes and the
	// lowest rate that runs past a priority rotation.
	const injected = 1500
	nocstar := func(g Geometry) func(*engine.Engine) diffFabric {
		return func(eng *engine.Engine) diffFabric { return NewNocstar(eng, NocstarConfig{Geometry: g, HPCmax: 4}) }
	}
	oracle := func(g Geometry) func(*engine.Engine) diffFabric {
		return func(eng *engine.Engine) diffFabric { return newRefFabric(eng, g, 4) }
	}
	for _, nodes := range []int{16, 64, 256} {
		g := GridFor(nodes)
		for _, rate := range []float64{0.05, 0.15, 0.4} {
			cycles := engine.Cycle(injected / (float64(nodes) * rate))
			for seed := int64(1); seed <= 3; seed++ {
				got := runDiffTraffic(nocstar(g), nodes, rate, cycles, seed)
				want := runDiffTraffic(oracle(g), nodes, rate, cycles, seed)
				name := fmt.Sprintf("%d nodes, rate %.2f, seed %d", nodes, rate, seed)
				sameGrants(t, name, got, want)
				ws := want.fab.Stats()
				if rate == 0.4 && (ws.Retries == 0 || ws.Releases == 0 || ws.ForeignLinks == 0) {
					t.Fatalf("%s: traffic too light to exercise retries and releases: %+v", name, ws)
				}
			}
		}
		// A burst of four requests from every node just before a
		// priority rotation leaves sources with several requests still
		// waiting when the priorities rotate under them.
		const burstAt = PriorityRotationPeriod - 3
		for seed := int64(1); seed <= 2; seed++ {
			got := runDiffBurst(nocstar(g), nodes, 0.05, PriorityRotationPeriod+20, seed, burstAt, 4)
			want := runDiffBurst(oracle(g), nodes, 0.05, PriorityRotationPeriod+20, seed, burstAt, 4)
			name := fmt.Sprintf("%d nodes, burst across the rotation, seed %d", nodes, seed)
			sameGrants(t, name, got, want)
			waiting := make(map[NodeID]int)
			for _, m := range want.bursts {
				// Granted after the round at the rotation cycle: it was
				// still waiting when the priorities rotated.
				if want.granted[m.id] > PriorityRotationPeriod {
					waiting[m.src]++
				}
			}
			several := 0
			for _, n := range waiting {
				if n >= 2 {
					several++
				}
			}
			if several == 0 {
				t.Fatalf("%s: no source had several requests waiting across the rotation", name)
			}
		}
	}
}
