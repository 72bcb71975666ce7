package event

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/sim"
)

func newEngine(seed uint64) *sim.Engine {
	return sim.New(cost.NewModel(cost.Challenge100), seed)
}

func TestEventFiresAtDeadline(t *testing.T) {
	e := newEngine(1)
	w := New()
	w.Start(e, 0)
	var firedAt int64 = -1
	e.Spawn("sched", 1, func(th *sim.Thread) {
		w.Schedule(th, func(et *sim.Thread, arg any) {
			firedAt = et.Now()
		}, nil, 55_000_000) // 55 ms
		th.Sleep(200_000_000)
		w.Stop()
	})
	e.Run()
	if firedAt < 55_000_000 {
		t.Fatalf("fired at %d, before deadline", firedAt)
	}
	// Must fire within one tick of the deadline.
	if firedAt > 55_000_000+2*Tick {
		t.Fatalf("fired at %d, too late (tick %d)", firedAt, Tick)
	}
}

// TestFireTick: an event runs at the first tick strictly after its
// deadline, so one due on a tick boundary waits for the next tick.
func TestFireTick(t *testing.T) {
	for _, c := range []struct{ delay, tick int64 }{
		{1, Tick},
		{Tick - 1, Tick},
		{Tick, 2 * Tick},
		{3*Tick + 1, 4 * Tick},
		{20 * Tick, 21 * Tick},
	} {
		e := newEngine(2)
		w := New()
		w.Start(e, 0)
		var ranAt int64 = -1
		e.Spawn("sched", 1, func(th *sim.Thread) {
			if th.Now() != 0 {
				t.Errorf("scheduling thread starts at %d, want 0", th.Now())
			}
			w.Schedule(th, func(et *sim.Thread, _ any) { ranAt = et.Now() }, nil, c.delay)
			th.Sleep(c.delay + 3*Tick)
			w.Stop()
		})
		e.Run()
		// The handler runs after the tick's pass under the lock, so
		// within a few microseconds of the tick.
		if ranAt < c.tick || ranAt >= c.tick+Tick/100 {
			t.Errorf("delay %d: ran at %d, want just after the tick at %d", c.delay, ranAt, c.tick)
		}
	}
}

func TestManyEventsFireInOrder(t *testing.T) {
	e := newEngine(4)
	w := New()
	w.Start(e, 0)
	var fired []int
	e.Spawn("sched", 1, func(th *sim.Thread) {
		for i := 5; i >= 1; i-- {
			i := i
			w.Schedule(th, func(*sim.Thread, any) {
				fired = append(fired, i)
			}, nil, int64(i)*30_000_000)
		}
		th.Sleep(400_000_000)
		w.Stop()
	})
	e.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events, want 5", len(fired))
	}
	for i, v := range fired {
		if v != i+1 {
			t.Fatalf("fire order %v, want ascending", fired)
		}
	}
}

// TestSameTickRunsNewestFirst: events due at one tick run in the
// reverse of the order they were scheduled in, whatever their deadlines
// within the tick. Every TCP golden depends on this order.
func TestSameTickRunsNewestFirst(t *testing.T) {
	e := newEngine(3)
	w := New()
	w.Start(e, 0)
	var order []int
	e.Spawn("sched", 1, func(th *sim.Thread) {
		for i, delay := range []int64{Tick + 100, Tick + 900, Tick + 500, 2*Tick - Tick/10} {
			w.Schedule(th, func(*sim.Thread, any) { order = append(order, i) }, nil, delay)
		}
		th.Sleep(5 * Tick)
		w.Stop()
	})
	e.Run()
	if want := []int{3, 2, 1, 0}; !slices.Equal(order, want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
}

// TestWheelWrapAround: an event further out than the paper's 512-slot
// wheel spans (5.12 s) runs at its own tick, not one period early.
func TestWheelWrapAround(t *testing.T) {
	e := newEngine(5)
	w := New()
	w.Start(e, 0)
	var firedAt int64 = -1
	far := int64(600*Tick + Tick/2) // 6.005 s
	e.Spawn("sched", 1, func(th *sim.Thread) {
		w.Schedule(th, func(et *sim.Thread, _ any) { firedAt = et.Now() }, nil, far)
		th.Sleep(far + 10*Tick)
		w.Stop()
	})
	e.Run()
	if firedAt < 601*Tick || firedAt >= 602*Tick {
		t.Fatalf("fired at %d, want in the tick at %d", firedAt, 601*Tick)
	}
}

func TestHandlerCanReschedule(t *testing.T) {
	e := newEngine(6)
	w := New()
	w.Start(e, 0)
	count := 0
	var ranAt []int64
	var tick func(th *sim.Thread, arg any)
	tick = func(th *sim.Thread, arg any) {
		count++
		ranAt = append(ranAt, th.Now())
		if count < 5 {
			w.Schedule(th, tick, nil, 20_000_000)
		}
	}
	e.Spawn("sched", 1, func(th *sim.Thread) {
		w.Schedule(th, tick, nil, 20_000_000)
		th.Sleep(1_000_000_000)
		w.Stop()
	})
	e.Run()
	if count != 5 {
		t.Fatalf("recurring handler ran %d times, want 5", count)
	}
	// Rescheduled from just past a tick, each run lands on the third
	// tick after the one that ran it.
	for i := 1; i < len(ranAt); i++ {
		if got := ranAt[i]/Tick - ranAt[i-1]/Tick; got != 3 {
			t.Errorf("run %d came %d ticks after run %d, want 3 (%v)", i, got, i-1, ranAt)
		}
	}
}

func TestZeroDelayFiresNextTick(t *testing.T) {
	e := newEngine(9)
	w := New()
	w.Start(e, 0)
	fired := false
	e.Spawn("sched", 1, func(th *sim.Thread) {
		w.Schedule(th, func(*sim.Thread, any) { fired = true }, nil, 0)
		th.Sleep(3 * Tick)
		w.Stop()
	})
	e.Run()
	if !fired {
		t.Fatal("zero-delay event never fired")
	}
}

// TestNewAllocations: New makes the manager and nothing else; its lock
// lives inside it.
func TestNewAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { New() }); n > 1 {
		t.Errorf("New(): %v allocations, want at most 1", n)
	}
}

// TestHostStopEndsWait: on the host backend the event thread sleeps in
// wall-clock ticks, and Stop ends that sleep. An event due at the tick
// the thread sleeps toward runs in the pass that follows the wake, so
// before that tick; without the wake it could run only at the tick. A
// try whose Stop lands before the thread sleeps proves nothing, so a few
// are allowed.
func TestHostStopEndsWait(t *testing.T) {
	for try := 0; try < 5; try++ {
		e := sim.NewBackend(cost.NewModel(cost.Challenge100), 1, sim.BackendHost)
		w := New()
		w.Start(e, 0)
		var next, ranAt int64 = 0, -1
		e.Spawn("sched", 1, func(th *sim.Thread) {
			w.Schedule(th, func(et *sim.Thread, _ any) {
				next = (et.Now()/Tick + 1) * Tick
				w.Schedule(et, func(et *sim.Thread, _ any) { ranAt = et.Now() }, nil, 0)
				go func() {
					time.Sleep(time.Millisecond)
					w.Stop()
				}()
			}, nil, 0)
		})
		e.Run()
		if ranAt >= 0 && ranAt < next {
			return
		}
	}
	t.Error("in 5 host runs, no event ran before the tick the event thread slept toward when Stop came")
}
