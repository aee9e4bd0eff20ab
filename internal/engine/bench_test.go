package engine

import "testing"

// The event-queue benchmarks use the classic "hold" model: a fixed
// population of self-rescheduling events churns through the queue, so
// steady-state Push/Pop cost dominates. Two delay distributions cover the
// simulator's real access patterns: uniform (timing wheels of in-flight
// messages) and skewed (bursts of same-cycle events with a long tail of
// far-future timeouts, the shape TLB shootdown storms produce).

const benchHoldWidth = 4096

// holdActor is one event of the hold model: it reschedules itself until
// the benchmark's event budget is spent.
type holdActor struct {
	e    *Engine
	r    *Rand
	n    int
	next func(*Rand) Cycle
}

func (h *holdActor) Act(uint8, any) {
	if h.n <= 0 {
		return
	}
	h.n--
	h.e.ScheduleAct(h.next(h.r), h, 0, nil)
}

func benchmarkScheduleRun(b *testing.B, width int, next func(*Rand) Cycle) {
	b.ReportAllocs()
	e := New()
	h := &holdActor{e: e, r: NewRand(1), n: b.N, next: next}
	if width > b.N {
		width = b.N
	}
	for i := 0; i < width; i++ {
		e.ScheduleAct(next(h.r), h, 0, nil)
	}
	e.Run()
}

func BenchmarkScheduleRun(b *testing.B) {
	b.Run("uniform", func(b *testing.B) {
		benchmarkScheduleRun(b, benchHoldWidth, func(r *Rand) Cycle {
			return Cycle(1 + r.Intn(1000))
		})
	})
	b.Run("skewed", func(b *testing.B) {
		benchmarkScheduleRun(b, benchHoldWidth, func(r *Rand) Cycle {
			// 90% of events land within the next few cycles; the rest
			// model far-future timeouts.
			if r.Float64() < 0.9 {
				return Cycle(r.Intn(4))
			}
			return Cycle(1 + r.Intn(5000))
		})
	})
	b.Run("wide", func(b *testing.B) {
		// About 1024 events per cycle, as a 1024-core fabric keeps in
		// flight: delays 1-300 average 150.5 cycles.
		benchmarkScheduleRun(b, 1024*150, func(r *Rand) Cycle {
			return Cycle(1 + r.Intn(300))
		})
	})
}

// BenchmarkSchedulePushPop isolates queue maintenance: fill then drain,
// no rescheduling.
func BenchmarkSchedulePushPop(b *testing.B) {
	b.ReportAllocs()
	r := NewRand(7)
	idle := &holdActor{}
	for i := 0; i < b.N; i += benchHoldWidth {
		e := New()
		for j := 0; j < benchHoldWidth; j++ {
			e.ScheduleAct(Cycle(r.Intn(10000)), idle, 0, nil)
		}
		e.Run()
	}
}
