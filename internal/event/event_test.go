package event

import (
	"reflect"
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

// TestNewAllocations: New builds no chain lock (they come in chunks on
// first use), nor a heap object per slot (New made 515 allocations that
// way).
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

// TestChainLocksBuiltOnUse: a 75 ms run touches chains 0-8 of the
// default wheel, so it builds one chunk of chain locks, and each lock in
// it is the one the eager array NewLocks builds would hold: an untouched
// lock equals it field for field, a touched one in name.
func TestChainLocksBuiltOnUse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kind = sim.KindMCS
	w := New(cfg)
	e := newEngine(3)
	w.Start(e, 0)
	e.Spawn("sched", 1, func(th *sim.Thread) {
		for d := int64(5_000_000); d < 75_000_000; d += 10_000_000 {
			w.Schedule(th, func(*sim.Thread, any) {}, nil, d)
		}
		th.Sleep(75_000_000)
		w.Stop()
	})
	e.Run()
	built := 0
	for i := range w.chunks {
		if w.chunks[i].Load() != nil {
			built++
		}
	}
	if built != 1 {
		t.Errorf("a 75 ms run built %d chunks of chain locks, want 1", built)
	}
	eager := sim.NewLocks(cfg.Kind, "evchain", lockChunk)
	chunk := w.chunks[0].Load()
	for i := range chunk {
		if l := &chunk[i]; l.Name != "evchain" {
			t.Errorf("chain lock %d is named %q, want %q", i, l.Name, "evchain")
		}
		if i > 9 && !reflect.DeepEqual(&chunk[i], &eager[i]) {
			t.Errorf("untouched chain lock %d differs from the eager array's", i)
		}
	}
}

// TestHostStopEndsWait: on the host backend the event thread sleeps in
// wall-clock ticks, and Stop ends its sleep rather than leaving the run
// to wait out the tick.
func TestHostStopEndsWait(t *testing.T) {
	e := sim.NewBackend(cost.NewModel(cost.Challenge100), 1, sim.BackendHost)
	w := New(Config{Slots: 8, Tick: int64(10 * time.Second), PerChain: true})
	w.Start(e, 0)
	e.Spawn("stopper", 1, func(th *sim.Thread) {
		th.Sleep(int64(time.Millisecond))
		w.Stop()
	})
	start := time.Now()
	e.Run()
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("host run ended %v after Stop's thread started, want well inside the 10 s tick", d)
	}
}
