package event

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

func newEngine(seed uint64) *sim.Engine {
	return sim.New(cost.NewModel(cost.Challenge100), seed)
}

func TestEventFiresAtDeadline(t *testing.T) {
	e := newEngine(1)
	w := New(DefaultConfig())
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
	if firedAt > 55_000_000+2*w.Tick {
		t.Fatalf("fired at %d, too late (tick %d)", firedAt, w.Tick)
	}
}

func TestManyEventsFireInOrder(t *testing.T) {
	e := newEngine(4)
	w := New(DefaultConfig())
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

func TestWheelWrapAround(t *testing.T) {
	// Deadline farther than Slots*Tick must still fire at the right
	// round, not a wheel-period early.
	cfg := Config{Slots: 8, Tick: 10_000_000, PerChain: true, Kind: sim.KindMutex}
	e := newEngine(5)
	w := New(cfg)
	w.Start(e, 0)
	var firedAt int64 = -1
	far := int64(25) * cfg.Tick // > 8 slots
	e.Spawn("sched", 1, func(th *sim.Thread) {
		w.Schedule(th, func(et *sim.Thread, any2 any) { firedAt = et.Now() }, nil, far)
		th.Sleep(far + 10*cfg.Tick)
		w.Stop()
	})
	e.Run()
	if firedAt < far {
		t.Fatalf("fired at %d, want >= %d (wrap bug)", firedAt, far)
	}
}

func TestHandlerCanReschedule(t *testing.T) {
	e := newEngine(6)
	w := New(DefaultConfig())
	w.Start(e, 0)
	count := 0
	var tick func(th *sim.Thread, arg any)
	tick = func(th *sim.Thread, arg any) {
		count++
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
}

func TestSingleLockModeWorks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerChain = false
	e := newEngine(7)
	w := New(cfg)
	w.Start(e, 0)
	fired := 0
	e.Spawn("sched", 1, func(th *sim.Thread) {
		for i := 0; i < 10; i++ {
			w.Schedule(th, func(*sim.Thread, any) { fired++ }, nil, int64(i+1)*15_000_000)
		}
		th.Sleep(500_000_000)
		w.Stop()
	})
	e.Run()
	if fired != 10 {
		t.Fatalf("fired = %d, want 10", fired)
	}
}

func TestCounts(t *testing.T) {
	e := newEngine(8)
	w := New(DefaultConfig())
	w.Start(e, 0)
	e.Spawn("sched", 1, func(th *sim.Thread) {
		w.Schedule(th, func(*sim.Thread, any) {}, nil, 10_000_000)
		w.Schedule(th, func(*sim.Thread, any) {}, nil, 20_000_000)
		w.Schedule(th, func(*sim.Thread, any) {}, nil, 500_000_000) // after Stop
		th.Sleep(200_000_000)
		w.Stop()
	})
	e.Run()
	sched, fired := w.Counts()
	if sched != 3 || fired != 2 {
		t.Fatalf("counts = %d/%d, want 3/2", sched, fired)
	}
}

func TestZeroDelayFiresNextTick(t *testing.T) {
	e := newEngine(9)
	w := New(DefaultConfig())
	w.Start(e, 0)
	fired := false
	e.Spawn("sched", 1, func(th *sim.Thread) {
		w.Schedule(th, func(*sim.Thread, any) { fired = true }, nil, 0)
		th.Sleep(3 * w.Tick)
		w.Stop()
	})
	e.Run()
	if !fired {
		t.Fatal("zero-delay event never fired")
	}
}

// TestNewAllocations: the chain locks are one array, not a heap object
// per slot (New made 515 allocations that way).
func TestNewAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { New(DefaultConfig()) }); n > 4 {
		t.Errorf("New(DefaultConfig()): %v allocations, want at most 4", n)
	}
}

// TestChainLocks: per-chain locking gives two slots two locks; the
// single-lock ablation sends both through one.
func TestChainLocks(t *testing.T) {
	for _, perChain := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.PerChain = perChain
		w := New(cfg)
		e := newEngine(3)
		e.Spawn("sched", 0, func(th *sim.Thread) {
			w.Schedule(th, func(*sim.Thread, any) {}, nil, 15_000_000)
			w.Schedule(th, func(*sim.Thread, any) {}, nil, 55_000_000)
		})
		e.Run()
		a, b := w.lock(w.slotFor(15_000_000)), w.lock(w.slotFor(55_000_000))
		na, nb := a.Stats().Acquires, b.Stats().Acquires
		if perChain && (a == b || na != 1 || nb != 1) || !perChain && (a != b || na != 2) {
			t.Errorf("per-chain %v: the two slots' locks (same: %v) acquired %d and %d times", perChain, a == b, na, nb)
		}
	}
}
