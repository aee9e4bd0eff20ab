package check

import (
	"strings"
	"testing"

	"nocstar/internal/engine"
	"nocstar/internal/noc"
)

// fn adapts a closure to engine.Actor, so a test can schedule inline
// code.
type fn func()

func (f fn) Act(uint8, any) { f() }

// after schedules f delay cycles from now.
func after(eng *engine.Engine, delay engine.Cycle, f func()) {
	eng.ScheduleAct(delay, fn(f), 0, nil)
}

// noGrant is a GrantHandler that ignores its grants.
type noGrant struct{}

func (noGrant) PathGranted(uint8, any, int) {}

// shadowedFabric builds a 4x4 NOCSTAR fabric with a fresh Checker's
// circuit shadow and event-order hook attached.
func shadowedFabric() (*engine.Engine, *noc.Nocstar, *Checker) {
	eng := engine.New()
	n := noc.NewNocstar(eng, noc.NocstarConfig{Geometry: noc.GridFor(16)})
	c := New()
	c.AttachEngine(eng)
	c.AttachFabric(n)
	return eng, n, c
}

// lateReleaseTraffic drives the exact timeline of the historical
// link-release clobber (noc.TestLateReleaseDoesNotClobber): holder A's
// round-trip release arrives after its window expired and B re-reserved
// the shared links, then C requests the same path.
func lateReleaseTraffic(eng *engine.Engine, n *noc.Nocstar) {
	after(eng, 1, func() {
		n.RequestPathTo(0, 3, 20, noGrant{}, 0, nil) // A: reserved through 21
	})
	after(eng, 22, func() {
		n.RequestPathTo(0, 3, 20, noGrant{}, 0, nil) // B: reserved through 42
	})
	after(eng, 30, func() {
		n.Release(0, 3, 21) // A's late release; B owns the links now
	})
	after(eng, 31, func() {
		n.RequestPathTo(0, 3, 1, noGrant{}, 0, nil) // C: must wait for B
	})
	eng.Run()
}

func TestCircuitShadowCleanTraffic(t *testing.T) {
	eng, n, c := shadowedFabric()
	lateReleaseTraffic(eng, n)
	if !c.Ok() {
		t.Fatalf("correct release semantics flagged: %v", c.Err())
	}
	st := c.Stats()
	if st.Grants != 3 || st.Releases != 1 {
		t.Fatalf("shadow coverage: grants=%d releases=%d, want 3/1", st.Grants, st.Releases)
	}
	if n.Stats().ForeignLinks == 0 {
		t.Fatal("timeline did not exercise the foreign-hold release path")
	}
}

// releaseAt5 releases its grant's links at cycle 5, well inside the
// 1000-cycle window they were reserved for.
type releaseAt5 struct {
	eng *engine.Engine
	n   *noc.Nocstar
}

func (r releaseAt5) PathGranted(uint8, any, int) {
	r.eng.AtAct(5, fn(func() { r.n.Release(0, 3, 1001) }), 0, nil)
}

func TestCircuitShadowEarlyRelease(t *testing.T) {
	eng, n, c := shadowedFabric()
	after(eng, 1, func() {
		// Granted end of cycle 1: links reserved through 1001.
		n.RequestPathTo(0, 3, 1000, releaseAt5{eng, n}, 0, nil)
	})
	after(eng, 6, func() {
		n.RequestPathTo(0, 3, 1, noGrant{}, 0, nil)
	})
	eng.Run()
	if !c.Ok() {
		t.Fatalf("early self-release flagged: %v", c.Err())
	}
	if c.Stats().Grants != 2 || c.Stats().Releases != 1 {
		t.Fatalf("shadow coverage: %+v", c.Stats())
	}
}

// TestCircuitShadowCatchesLegacyRelease reintroduces the PR 3
// unconditional-rewind bug and asserts the shadow reports it: the fabric
// frees B's hold on A's late release (divergence at the release event),
// and C's subsequent grant overlaps what the shadow still records as B's
// circuit.
func TestCircuitShadowCatchesLegacyRelease(t *testing.T) {
	eng, n, c := shadowedFabric()
	n.SetLegacyReleaseForTest(true)
	lateReleaseTraffic(eng, n)
	if c.Ok() {
		t.Fatal("legacy unconditional release escaped the circuit shadow")
	}
	var sawRelease, sawOverlap bool
	for _, v := range c.Violations() {
		if strings.Contains(v.Msg, "release did not free exactly the caller's hold") {
			sawRelease = true
		}
		if strings.Contains(v.Msg, "overlaps link") {
			sawOverlap = true
		}
	}
	if !sawRelease {
		t.Fatalf("no release-divergence violation recorded: %v", c.Violations())
	}
	if !sawOverlap {
		t.Fatalf("no overlapping-grant violation recorded: %v", c.Violations())
	}
}
