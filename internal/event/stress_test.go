package event

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// TestWheelConcurrentScheduleCancel stresses the one lock with several
// threads scheduling while events fire, mimicking the timer churn of
// many TCP connections: every event fires once, at its own tick.
func TestWheelConcurrentScheduleCancel(t *testing.T) {
	e := newEngine(99)
	w := New()
	w.Start(e, 0)
	fired, late := 0, 0
	for i := 0; i < 6; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), i, func(th *sim.Thread) {
			for j := 0; j < 50; j++ {
				deadline := th.Now() + int64(th.Rand().Intn(300)+1)*1_000_000
				w.Schedule(th, func(et *sim.Thread, _ any) {
					fired++
					if et.Now()/Tick != deadline/Tick+1 {
						late++
					}
				}, nil, deadline-th.Now())
				th.Sleep(int64(th.Rand().Intn(10)+1) * 1_000_000)
			}
		})
	}
	e.Spawn("ctl", 7, func(th *sim.Thread) {
		th.Sleep(2_000_000_000)
		w.Stop()
	})
	e.Run()
	if fired != 300 || late != 0 {
		t.Fatalf("fired %d of 300 scheduled, %d away from their tick", fired, late)
	}
}

// TestHostConcurrentSchedule: on the host backend, threads on real
// goroutines schedule while the event thread runs due events; every
// event fires exactly once. Run it with -race.
func TestHostConcurrentSchedule(t *testing.T) {
	const threads, each = 4, 50
	e := sim.NewBackend(cost.NewModel(cost.Challenge100), 1, sim.BackendHost)
	w := New()
	w.Start(e, 0)
	var fired atomic.Int64
	var scheduled atomic.Int64
	for i := 0; i < threads; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), i+1, func(th *sim.Thread) {
			for j := 0; j < each; j++ {
				w.Schedule(th, func(*sim.Thread, any) { fired.Add(1) }, nil, int64(j%3)*Tick)
				scheduled.Add(1)
			}
		})
	}
	e.Spawn("ctl", threads+1, func(th *sim.Thread) {
		for start := th.Now(); th.Now()-start < 10_000_000_000; th.Sleep(Tick) {
			if scheduled.Load() == threads*each && fired.Load() == threads*each {
				break
			}
		}
		w.Stop()
	})
	e.Run()
	if n := fired.Load(); n != threads*each {
		t.Fatalf("fired %d of %d scheduled", n, threads*each)
	}
}
