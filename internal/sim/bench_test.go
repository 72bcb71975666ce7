package sim

// Wall-clock micro-benchmarks of the simulation engine itself: how fast
// the simulator executes, not how fast the simulated machine is.

import (
	"fmt"
	"testing"

	"repro/internal/cost"
)

func BenchmarkEngineSyncHandoff(b *testing.B) {
	e := New(cost.NewModel(cost.Challenge100), 1)
	e.Spawn("t", 0, func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Charge(10)
			th.Sync()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineHandoffPingPong forces a genuine thread-to-thread
// handoff on every scheduling decision: two threads advance in lockstep,
// so each Sync switches the yielder out to the driver and the peer in
// (no same-thread fast path).
func BenchmarkEngineHandoffPingPong(b *testing.B) {
	e := New(cost.NewModel(cost.Challenge100), 1)
	per := b.N/2 + 1
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("t%d", i), i, func(th *Thread) {
			for j := 0; j < per; j++ {
				th.Charge(10)
				th.Sync()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineSpawn measures thread creation and teardown: each
// thread spawns its successor and exits, so every iteration after the
// first reuses a pooled Thread struct and its parked coroutine.
func BenchmarkEngineSpawn(b *testing.B) {
	e := New(cost.NewModel(cost.Challenge100), 1)
	var spawn func(i int) func(*Thread)
	spawn = func(i int) func(*Thread) {
		return func(th *Thread) {
			if i < b.N {
				e.Spawn("t", 0, spawn(i+1))
			}
		}
	}
	e.Spawn("t", 0, spawn(1))
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func BenchmarkUncontendedMutex(b *testing.B) {
	e := New(cost.NewModel(cost.Challenge100), 1)
	var m Mutex
	e.Spawn("t", 0, func(th *Thread) {
		for i := 0; i < b.N; i++ {
			m.Acquire(th)
			m.Release(th)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func BenchmarkContendedMutex4Threads(b *testing.B) {
	e := New(cost.NewModel(cost.Challenge100), 1)
	var m Mutex
	per := b.N/4 + 1
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("t%d", i), i, func(th *Thread) {
			for j := 0; j < per; j++ {
				m.Acquire(th)
				th.Charge(5000)
				m.Release(th)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func BenchmarkContendedMCS4Threads(b *testing.B) {
	e := New(cost.NewModel(cost.Challenge100), 1)
	var m MCSLock
	per := b.N/4 + 1
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("t%d", i), i, func(th *Thread) {
			for j := 0; j < per; j++ {
				m.Acquire(th)
				th.Charge(5000)
				m.Release(th)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// benchCell times op on a single thread of each substrate: the sim
// rows are the plain-memory paths, the host rows the sync/atomic ones.
func benchCell(b *testing.B, op func(th *Thread)) {
	for _, backend := range []Backend{BackendSim, BackendHost} {
		b.Run(backend.String(), func(b *testing.B) {
			e := NewBackend(nil, 1, backend)
			b.ReportAllocs()
			e.Spawn("t", 0, func(th *Thread) {
				b.ResetTimer() // a host thread starts running at Spawn
				for i := 0; i < b.N; i++ {
					op(th)
				}
			})
			e.Run()
		})
	}
}

func BenchmarkRefCountIncrDecr(b *testing.B) {
	var rc RefCount
	rc.Init(RefAtomic, 1)
	benchCell(b, func(th *Thread) {
		rc.Incr(th)
		rc.Decr(th)
	})
}

func BenchmarkUncontendedCountingLock(b *testing.B) {
	c := NewCountingLock(KindMutex, "map")
	benchCell(b, func(th *Thread) {
		c.Acquire(th)
		c.Release(th)
	})
}

func BenchmarkStatCount(b *testing.B) {
	var stat int64
	benchCell(b, func(th *Thread) { th.Count(&stat, 1) })
}
