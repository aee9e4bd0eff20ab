// Package engine provides a deterministic cycle-driven discrete-event
// simulation core.
//
// The engine advances a single global clock measured in Cycle units.
// Events scheduled for the same cycle execute in the order they were
// scheduled, which makes runs with identical inputs bit-for-bit
// reproducible. A second phase per cycle — end-of-cycle finalizers —
// supports synchronous hardware semantics such as link arbitration, where
// every request issued during a cycle must be visible before any grant
// decision is made.
package engine

// Cycle is a point in simulated time, measured in clock cycles.
type Cycle uint64

// Actor handles typed events. Hot simulation paths schedule through
// ScheduleAct/AtAct instead of closure callbacks: the event carries a
// persistent Actor (the model object), a small operation code selecting
// the continuation, and an opaque pointer payload. None of the three
// allocate — interfaces over pointers box nothing — so a steady-state
// transaction path can run without a single heap allocation, where an
// equivalent closure would capture its variables on the heap at every
// scheduling site.
type Actor interface {
	// Act executes the continuation op with payload arg.
	Act(op uint8, arg any)
}

// event is a scheduled callback: either a plain closure (fn) or a typed
// (actor, op, arg) triple. fn takes precedence when non-nil.
type event struct {
	when  Cycle
	seq   uint64
	fn    func()
	actor Actor
	op    uint8
	arg   any
}

// less orders events by (when, seq): cycle first, FIFO within a cycle.
func (e event) less(o event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

// eventQueue is a typed 4-ary min-heap of events ordered by (when, seq),
// used as the timing wheel's overflow store for events scheduled beyond
// the wheel horizon.
//
// It replaces container/heap, which boxes every event through interface{}
// on each Push and Pop — two heap allocations per event. The typed heap
// keeps events inline in one slice (zero steady-state allocations) and
// the 4-ary layout halves the tree depth, trading slightly more
// comparisons per level for far fewer cache-missing levels.
type eventQueue struct {
	ev []event
}

const heapArity = 4

func (q *eventQueue) len() int { return len(q.ev) }

// head returns the minimum event without removing it. Only valid when
// len() > 0.
func (q *eventQueue) head() *event { return &q.ev[0] }

// push adds an event and restores the heap by sifting it up.
func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !q.ev[i].less(q.ev[parent]) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

// pop removes and returns the minimum event. Only valid when len() > 0.
func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev[n] = event{} // release the callback for GC
	q.ev = q.ev[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return top
}

// siftDown places e, displaced from the root, back into heap position.
func (q *eventQueue) siftDown(e event) {
	ev := q.ev
	n := len(ev)
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		// Find the smallest child.
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if ev[c].less(ev[min]) {
				min = c
			}
		}
		if !ev[min].less(e) {
			break
		}
		ev[i] = ev[min]
		i = min
	}
	ev[i] = e
}

// wheelSize is the engine's horizon in cycles. Nearly every delay in the
// simulator is short (port waits, SRAM latencies, NoC traversals, page
// walks, shootdown intervals), so events overwhelmingly land within the
// wheel; only far-future schedules take the overflow heap. Must be a
// power of two.
const (
	wheelSize = 8192
	wheelMask = wheelSize - 1
)

// Engine is a discrete-event simulator clock. The zero value is not ready
// for use; call New.
//
// Events are kept in a timing wheel: one FIFO bucket per cycle in
// [now, now+wheelSize). Because sequence numbers are assigned in
// scheduling order and scheduling only happens while the clock stands
// still, appending to a bucket already yields (when, seq) order — popping
// a bucket front-to-back replays a cycle exactly as the old comparison
// heap did, without the O(log n) sift (and its 64-byte event moves) per
// push and pop on the simulator's hottest path. Events beyond the horizon
// wait in an overflow min-heap and migrate into the wheel as the clock
// advances, before any newer (higher-seq) event can be appended behind
// them, so the total order is preserved.
type Engine struct {
	now Cycle
	seq uint64
	// wheel[c&wheelMask] holds the events of cycle c, for c in
	// [now, now+wheelSize), in seq order. Buckets keep their capacity
	// across laps, so the steady state allocates nothing.
	wheel        [][]event
	wheelPending int
	overflow     eventQueue // events at now+wheelSize or later
	finalizers   []func()   // end-of-cycle actions for the current cycle
	// finalizerFree is the drained finalizer buffer from the previous
	// phase, recycled so a steady stream of AtEndOfCycle registrations
	// (one per NoC arbitration round) reallocates nothing.
	finalizerFree []func()
	processed     uint64
	observe       func(when Cycle, seq uint64)
	check         func(when Cycle, seq uint64)
}

// SetObserver installs fn, invoked immediately before every ordinary
// event executes with the event's (cycle, seq). The (cycle, seq) stream
// is the engine's total event order, so regression tests can pin it
// byte-for-byte across refactors of the scheduling machinery. A nil fn
// removes the observer. Finalizers carry no sequence number and are not
// observed.
func (e *Engine) SetObserver(fn func(when Cycle, seq uint64)) {
	e.observe = fn
}

// SetCheck installs fn as the engine's invariant-check hook: like the
// observer it receives every executed event's (cycle, seq) immediately
// before the event runs, but it is a separate slot so golden-order
// tracing (SetObserver) and invariant checking (internal/check) can be
// attached to the same run independently. A nil fn removes the hook.
// With no hook installed the event loop pays one predictable branch.
func (e *Engine) SetCheck(fn func(when Cycle, seq uint64)) {
	e.check = fn
}

// wheelBucketCap is the initial per-bucket capacity. Buckets are carved
// from one shared slab in New: profiles showed bucket append-growth was
// the single largest allocation-count source in a sweep (a few small
// grow-copies for nearly every bucket of every engine). Most buckets
// never hold more than a couple of events at once, so a small carved
// capacity absorbs almost all inserts; the rare busy bucket spills to a
// normally-grown slice and keeps it across laps.
const wheelBucketCap = 4

// New returns an engine with the clock at cycle 0 and no pending events.
func New() *Engine {
	e := &Engine{wheel: make([][]event, wheelSize)}
	slab := make([]event, wheelSize*wheelBucketCap)
	for i := range e.wheel {
		e.wheel[i] = slab[i*wheelBucketCap : i*wheelBucketCap : (i+1)*wheelBucketCap]
	}
	return e
}

// Now reports the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Processed reports how many events have executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending reports how many events are scheduled but not yet executed.
func (e *Engine) Pending() int { return e.wheelPending + e.overflow.len() + len(e.finalizers) }

// ResetProcessed zeroes the processed-event counter, so a measurement
// phase that begins mid-run (after a warmup) reports only its own events.
func (e *Engine) ResetProcessed() { e.processed = 0 }

// Schedule runs fn delay cycles from now. A delay of zero runs fn later in
// the current cycle, before any end-of-cycle finalizers fire.
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.At(e.now+delay, fn)
}

// At runs fn at the given absolute cycle. Scheduling in the past panics:
// it indicates a model bug that would otherwise corrupt causality.
func (e *Engine) At(when Cycle, fn func()) {
	if when < e.now {
		panic("engine: event scheduled in the past")
	}
	e.seq++
	e.insert(event{when: when, seq: e.seq, fn: fn})
}

// insert places an event in the wheel when it is within the horizon, in
// the overflow heap otherwise.
func (e *Engine) insert(ev event) {
	if ev.when < e.now+wheelSize {
		b := int(ev.when) & wheelMask
		e.wheel[b] = append(e.wheel[b], ev)
		e.wheelPending++
		return
	}
	e.overflow.push(ev)
}

// drainOverflow migrates every overflow event that has come within the
// horizon into the wheel. It must run each time the clock advances,
// before any event of the new cycle executes: events scheduled from then
// on carry higher sequence numbers than everything drained here, so
// bucket append order stays seq order. The heap pops in (when, seq)
// order, which likewise keeps multiple drained events of one cycle
// sorted.
func (e *Engine) drainOverflow() {
	limit := e.now + wheelSize
	for e.overflow.len() > 0 && e.overflow.head().when < limit {
		ev := e.overflow.pop()
		b := int(ev.when) & wheelMask
		e.wheel[b] = append(e.wheel[b], ev)
		e.wheelPending++
	}
}

// nextEventCycle returns the cycle of the earliest pending event.
func (e *Engine) nextEventCycle() (Cycle, bool) {
	if e.wheelPending > 0 {
		// All wheel events lie in [now, now+wheelSize), and every event
		// earlier than the overflow heap's horizon is in the wheel, so the
		// first populated bucket from now is the global minimum.
		for c := e.now; ; c++ {
			if len(e.wheel[int(c)&wheelMask]) > 0 {
				return c, true
			}
		}
	}
	if e.overflow.len() > 0 {
		return e.overflow.head().when, true
	}
	return 0, false
}

// ScheduleAct runs a.Act(op, arg) delay cycles from now. It is the
// allocation-free counterpart of Schedule: typed events interleave with
// closure events in one (cycle, seq) order, so the two styles can be
// mixed freely without perturbing determinism.
func (e *Engine) ScheduleAct(delay Cycle, a Actor, op uint8, arg any) {
	e.AtAct(e.now+delay, a, op, arg)
}

// AtAct runs a.Act(op, arg) at the given absolute cycle. Scheduling in
// the past panics, as with At.
func (e *Engine) AtAct(when Cycle, a Actor, op uint8, arg any) {
	if when < e.now {
		panic("engine: event scheduled in the past")
	}
	e.seq++
	e.insert(event{when: when, seq: e.seq, actor: a, op: op, arg: arg})
}

// AtEndOfCycle runs fn after every ordinary event of the current cycle has
// executed. Finalizers run in registration order. A finalizer may schedule
// new events for the current cycle; the engine keeps alternating between
// event and finalizer phases until the cycle quiesces.
func (e *Engine) AtEndOfCycle(fn func()) {
	e.finalizers = append(e.finalizers, fn)
}

// step executes every event and finalizer for the next populated cycle.
// It reports false when nothing remains.
func (e *Engine) step() bool {
	if e.wheelPending == 0 && e.overflow.len() == 0 && len(e.finalizers) == 0 {
		return false
	}
	if len(e.finalizers) == 0 {
		if next, ok := e.nextEventCycle(); ok && next > e.now {
			e.now = next
		}
	}
	e.drainOverflow()
	// Alternate between draining same-cycle events and running
	// finalizers until the cycle produces no further work.
	bi := int(e.now) & wheelMask
	for {
		ran := false
		// The current bucket is in seq order; events executed here may
		// append same-cycle events behind the cursor, so the length is
		// re-read every iteration.
		for i := 0; i < len(e.wheel[bi]); i++ {
			ev := e.wheel[bi][i]
			e.wheelPending--
			e.processed++
			if e.observe != nil {
				e.observe(e.now, ev.seq)
			}
			if e.check != nil {
				e.check(e.now, ev.seq)
			}
			if ev.fn != nil {
				ev.fn()
			} else {
				ev.actor.Act(ev.op, ev.arg)
			}
			ran = true
		}
		if len(e.wheel[bi]) > 0 {
			// Truncate without zeroing: the stale events beyond the new
			// length keep their payloads reachable, but those are the
			// model's own long-lived actors and free-listed transaction
			// objects, so nothing leaks — and skipping the clear removes a
			// bulk memclr plus its pointer write barriers from the hottest
			// loop in the simulator. Capacity stays bounded by the busiest
			// cycle the bucket has ever seen.
			e.wheel[bi] = e.wheel[bi][:0]
		}
		if len(e.finalizers) > 0 {
			// Swap in the recycled buffer before running: finalizers may
			// register new finalizers for the same cycle, which land in
			// the other buffer while this one drains.
			fns := e.finalizers
			e.finalizers = e.finalizerFree[:0]
			for i, fn := range fns {
				e.processed++
				fns[i] = nil // release the callback for GC
				fn()
			}
			e.finalizerFree = fns[:0]
			ran = true
		}
		if !ran {
			return true
		}
	}
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.step() {
	}
}

// RunUntil executes events with cycle <= limit. Events beyond the limit
// remain queued and the clock stops at the limit (or at the last processed
// event, whichever is later).
func (e *Engine) RunUntil(limit Cycle) {
	for {
		if e.wheelPending == 0 && e.overflow.len() == 0 && len(e.finalizers) == 0 {
			return
		}
		if len(e.finalizers) == 0 {
			if next, ok := e.nextEventCycle(); ok && next > limit {
				return
			}
		}
		e.step()
	}
}
