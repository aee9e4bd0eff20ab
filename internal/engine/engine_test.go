package engine

import (
	"testing"
	"testing/quick"
)

// fn adapts a closure to Actor, so a test can schedule inline code.
type fn func()

func (f fn) Act(uint8, any) { f() }

// after schedules f delay cycles from now.
func after(e *Engine, delay Cycle, f func()) { e.ScheduleAct(delay, fn(f), 0, nil) }

// atEnd registers f as an end-of-cycle finalizer.
func atEnd(e *Engine, f func()) { e.AtEndOfCycle(fn(f), 0, nil) }

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var got []int
	after(e, 5, func() { got = append(got, 5) })
	after(e, 1, func() { got = append(got, 1) })
	after(e, 3, func() { got = append(got, 3) })
	e.Run()
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %d, want 5", e.Now())
	}
}

// recorder is a typed actor that logs each event's op and payload, so
// the ordering tests also check that both reach Act intact.
type recorder struct{ got []int }

func (r *recorder) Act(op uint8, arg any) { r.got = append(r.got, int(op)*100+arg.(int)) }

func TestSameCycleFIFO(t *testing.T) {
	e := New()
	r := &recorder{}
	for i := 0; i < 10; i++ {
		e.ScheduleAct(7, r, uint8(i%3), i)
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if r.got[i] != (i%3)*100+i {
			t.Fatalf("same-cycle order not FIFO: %v", r.got)
		}
	}
}

func TestZeroDelayRunsThisCycle(t *testing.T) {
	e := New()
	var order []string
	after(e, 2, func() {
		order = append(order, "a")
		after(e, 0, func() { order = append(order, "b") })
	})
	after(e, 3, func() { order = append(order, "c") })
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestEndOfCycleAfterEvents(t *testing.T) {
	e := New()
	var order []string
	after(e, 4, func() {
		atEnd(e, func() { order = append(order, "final") })
		after(e, 0, func() { order = append(order, "late-event") })
		order = append(order, "event")
	})
	e.Run()
	want := []string{"event", "late-event", "final"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFinalizerCanScheduleNextCycle(t *testing.T) {
	e := New()
	hits := 0
	var tick func()
	tick = func() {
		atEnd(e, func() {
			hits++
			if hits < 5 {
				after(e, 1, tick)
			}
		})
	}
	after(e, 1, tick)
	e.Run()
	if hits != 5 {
		t.Fatalf("hits = %d, want 5", hits)
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %d, want 5", e.Now())
	}
}

func TestFinalizerSameCycleEventLoop(t *testing.T) {
	// A finalizer schedules a zero-delay event which registers another
	// finalizer; the engine must keep alternating phases within the cycle.
	e := New()
	var order []string
	after(e, 1, func() {
		order = append(order, "ev1")
		atEnd(e, func() {
			order = append(order, "fin1")
			after(e, 0, func() {
				order = append(order, "ev2")
				atEnd(e, func() { order = append(order, "fin2") })
			})
		})
	})
	e.Run()
	want := []string{"ev1", "fin1", "ev2", "fin2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 1 {
		t.Fatalf("Now() = %d, want 1 (all work in one cycle)", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	ran := make(map[Cycle]bool)
	for _, c := range []Cycle{1, 5, 10, 20} {
		c := c
		e.AtAct(c, fn(func() { ran[c] = true }), 0, nil)
	}
	e.RunUntil(10)
	if !ran[1] || !ran[5] || !ran[10] {
		t.Fatalf("events within limit not run: %v", ran)
	}
	if ran[20] {
		t.Fatal("event beyond limit ran")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.Run()
	if !ran[20] {
		t.Fatal("remaining event not run by Run")
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	after(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.AtAct(3, fn(func() {}), 0, nil)
	})
	e.Run()
}

func TestProcessedCounts(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		after(e, Cycle(i), func() {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Fatalf("Processed() = %d, want 7", e.Processed())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Cycle {
		e := New()
		r := NewRand(42)
		var trace []Cycle
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, e.Now())
			if depth == 0 {
				return
			}
			after(e, Cycle(1+r.Intn(10)), func() { spawn(depth - 1) })
			after(e, Cycle(1+r.Intn(10)), func() { spawn(depth - 1) })
		}
		after(e, 0, func() { spawn(6) })
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(7)
	const n = 100000
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Fatalf("bucket %d = %d, too far from uniform", i, b)
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRandSplitIndependence(t *testing.T) {
	a := NewRand(99)
	b := a.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams correlated: %d collisions", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the 4-ary heap pops events in exact (when, seq) order under
// arbitrary interleavings of pushes and pops.
func TestEventQueueOrderProperty(t *testing.T) {
	f := func(whens []uint16, popEvery uint8) bool {
		var q eventQueue
		var drained []event
		seq := uint64(0)
		interval := int(popEvery%7) + 1
		for i, w := range whens {
			seq++
			q.push(event{when: Cycle(w % 50), seq: seq})
			if i%interval == 0 && q.len() > 0 {
				drained = append(drained, q.pop())
			}
		}
		for q.len() > 0 {
			drained = append(drained, q.pop())
		}
		if len(drained) != len(whens) {
			return false
		}
		// Within the drain phase the full (when, seq) order must hold;
		// across the mixed phase, popped events must never decrease in
		// `when` relative to what remains impossible to check simply, so
		// verify the invariant that matters: a later pop with the same
		// `when` has a larger seq, and the final drain is totally ordered.
		seenAt := map[Cycle]uint64{}
		for _, e := range drained {
			if s, ok := seenAt[e.when]; ok && e.seq <= s {
				return false
			}
			seenAt[e.when] = e.seq
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: events always execute in non-decreasing cycle order, whatever
// the scheduling pattern.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		e := New()
		var seen []Cycle
		for _, d := range delays {
			after(e, Cycle(d), func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// chunksHeld counts the wheel chunks an engine holds: those linked into
// buckets plus those on the free list.
func chunksHeld(e *Engine) (held, nonEmpty int) {
	for c := e.free; c != nil; c = c.next {
		held++
	}
	for _, b := range e.wheel {
		if b.head != nil {
			nonEmpty++
		}
		for c := b.head; c != nil; c = c.next {
			held++
		}
	}
	return held, nonEmpty
}

// trickle reschedules itself one cycle ahead until n reaches zero,
// checking the engine's chunk count against bound every 64 events.
type trickle struct {
	t     *testing.T
	e     *Engine
	n     int
	bound int
}

func (tr *trickle) Act(uint8, any) {
	if tr.n%64 == 0 {
		if held, _ := chunksHeld(tr.e); held > tr.bound {
			tr.t.Fatalf("cycle %d: %d chunks held, bound %d", tr.e.Now(), held, tr.bound)
		}
	}
	if tr.n--; tr.n > 0 {
		tr.e.ScheduleAct(1, tr, 0, nil)
	}
}

// The wheel's memory follows the events pending at once, not every
// bucket's busiest cycle: after a 10k-event burst into one cycle, a
// one-event-per-cycle trickle over three laps of the wheel reuses the
// burst's chunks instead of growing every bucket it passes.
func TestWheelMemoryFollowsPending(t *testing.T) {
	const burst = 10_000
	const burstChunks = (burst + chunkEvents - 1) / chunkEvents
	e := New()
	idle := fn(func() {})
	for i := 0; i < burst; i++ {
		e.ScheduleAct(5, idle, 0, nil)
	}
	if held, nonEmpty := chunksHeld(e); held != burstChunks || nonEmpty != 1 {
		t.Fatalf("after the burst: %d chunks in %d buckets, want %d in 1", held, nonEmpty, burstChunks)
	}
	e.Run()
	// Peak pending events over the chunk size, plus one partial chunk
	// for each bucket non-empty at once (the burst's, then the trickle's
	// current and next cycles).
	bound := burst/chunkEvents + 2
	tr := &trickle{t: t, e: e, n: 3 * wheelSize, bound: bound}
	e.ScheduleAct(1, tr, 0, nil)
	e.Run()
	if tr.n != 0 {
		t.Fatalf("trickle stopped with %d events left", tr.n)
	}
	// Every chunk the trickle used came from the burst's, so it
	// allocated none and dropped none.
	held, nonEmpty := chunksHeld(e)
	if held != burstChunks || nonEmpty != 0 {
		t.Fatalf("after the trickle: %d chunks in %d buckets, want %d, all free", held, nonEmpty, burstChunks)
	}
}

// New allocates the Engine and its bucket array, nothing more: chunks
// are taken as events arrive.
func TestNewAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { New() }); n > 2 {
		t.Fatalf("New: %v allocations, want at most 2", n)
	}
}
