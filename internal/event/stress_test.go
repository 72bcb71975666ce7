package event

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestWheelConcurrentScheduleCancel stresses the per-chain locking with
// several threads scheduling while timers fire concurrently, mimicking
// the timer churn of many TCP connections: every event fires once.
func TestWheelConcurrentScheduleCancel(t *testing.T) {
	e := newEngine(99)
	w := New(DefaultConfig())
	w.Start(e, 0)
	fired := 0
	for i := 0; i < 6; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), i, func(th *sim.Thread) {
			for j := 0; j < 50; j++ {
				delay := int64(th.Rand().Intn(300)+1) * 1_000_000
				w.Schedule(th, func(*sim.Thread, any) { fired++ }, nil, delay)
				th.Sleep(int64(th.Rand().Intn(10)+1) * 1_000_000)
			}
		})
	}
	e.Spawn("ctl", 7, func(th *sim.Thread) {
		th.Sleep(2_000_000_000)
		w.Stop()
	})
	e.Run()
	sched, fir := w.Counts()
	if sched != 300 {
		t.Fatalf("scheduled %d, want 300", sched)
	}
	if int64(fired) != fir {
		t.Fatalf("fired mismatch: %d vs %d", fired, fir)
	}
	if fir != sched {
		t.Fatalf("fired %d of %d scheduled", fir, sched)
	}
}

// TestWheelSingleLockStressMatchesPerChain: both locking modes must
// deliver identical event accounting (the ablation only changes cost).
func TestWheelSingleLockStressMatchesPerChain(t *testing.T) {
	run := func(perChain bool) (int64, int64) {
		cfg := DefaultConfig()
		cfg.PerChain = perChain
		e := newEngine(7)
		w := New(cfg)
		w.Start(e, 0)
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), i, func(th *sim.Thread) {
				for j := 0; j < 25; j++ {
					w.Schedule(th, func(*sim.Thread, any) {}, nil,
						int64(th.Rand().Intn(200)+1)*1_000_000)
					th.Sleep(5_000_000)
				}
			})
		}
		e.Spawn("ctl", 5, func(th *sim.Thread) {
			th.Sleep(1_000_000_000)
			w.Stop()
		})
		e.Run()
		return w.Counts()
	}
	s1, f1 := run(true)
	s2, f2 := run(false)
	if s1 != s2 || f1 != f2 {
		t.Fatalf("locking mode changed behaviour: %d/%d vs %d/%d", s1, f1, s2, f2)
	}
	if f1 != 100 {
		t.Fatalf("fired %d, want all 100", f1)
	}
}
