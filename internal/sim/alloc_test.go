package sim

// Allocation pins for the contended path: once warm, blocking on a lock
// or a sequencer and being woken again must not touch the heap. These
// are the sites a shared-connection TCP run crosses on every packet.

import (
	"testing"

	"repro/internal/cost"
)

// extraAllocs measures whole engines of four threads that each call
// body n and then 2n times, and returns the heap allocations the extra
// n iterations add: the engine's own set-up cost is the same in both,
// so any difference is steady-state cost. newBody builds a fresh body
// and its shared state per engine, with a counter of how often a thread
// has had to wait; the extra n must add at least 100 waits, or the pin
// would only cover the uncontended path.
func extraAllocs(t *testing.T, newBody func() (body func(*Thread), blocked func() int64)) float64 {
	t.Helper()
	const n = 400 // iterations per thread
	run := func(iters int) (allocs float64, waits int64) {
		allocs = testing.AllocsPerRun(5, func() {
			body, blocked := newBody()
			e := New(cost.NewModel(cost.Challenge100), 1)
			for i := 0; i < 4; i++ {
				// A constant name: fmt's printer pool drops entries at
				// random under the race detector, which would make the
				// engine's own set-up cost vary.
				e.Spawn("w", i, func(th *Thread) {
					for j := 0; j < iters; j++ {
						body(th)
					}
				})
			}
			e.Run()
			waits = blocked()
		})
		return allocs, waits
	}
	once, w1 := run(n)
	twice, w2 := run(2 * n)
	if w2-w1 < 100 {
		t.Fatalf("only %d blocking waits in the extra iterations: not the contended path", w2-w1)
	}
	return twice - once
}

func TestContendedLocksDoNotAllocate(t *testing.T) {
	for _, kind := range []LockKind{KindMutex, KindMCS, KindTicket} {
		t.Run(kind.String(), func(t *testing.T) {
			allocs := extraAllocs(t, func() (func(*Thread), func() int64) {
				l := NewLock(kind, "pinned")
				return func(th *Thread) {
					th.ChargeRand(1000)
					l.Acquire(th)
					th.Charge(5000)
					l.Release(th)
				}, func() int64 { return l.Stats().Contended }
			})
			if allocs != 0 {
				t.Errorf("contended %s acquire/release: %v extra allocs, want 0", kind, allocs)
			}
		})
	}
}

func TestSequencerWaitDoesNotAllocate(t *testing.T) {
	allocs := extraAllocs(t, func() (func(*Thread), func() int64) {
		seq := new(Sequencer)
		var waits int64
		return func(th *Thread) {
			k := seq.Ticket(th)
			th.ChargeRand(20_000) // arrive at the wait out of ticket order
			th.Sync()
			if seq.serving != k {
				waits++
			}
			seq.Wait(th, k)
			th.Charge(500)
			seq.Done(th)
		}, func() int64 { return waits }
	})
	if allocs != 0 {
		t.Errorf("Sequencer wait: %v extra allocs, want 0", allocs)
	}
}

// TestQueueAndCondDoNotAllocate pins the handoff queue and the two
// condition variables inside it: two fast producers keep a two-slot
// queue full, so they park on notFull and the slower consumers signal
// them on every dequeue. Advancing a slice window (items[1:],
// waiters[1:]) walks off the end of the backing array and reallocates
// on every wrap; the ring and the copy-down list do not.
func TestQueueAndCondDoNotAllocate(t *testing.T) {
	const depth = 2
	allocs := extraAllocs(t, func() (func(*Thread), func() int64) {
		q := NewQueue("pinned", depth)
		var waits int64
		return func(th *Thread) {
			if th.Proc < 2 {
				th.Charge(1000)
				if q.Len() == depth {
					waits++
				}
				q.Enqueue(th, th) // a pointer: boxing it allocates nothing
			} else {
				th.ChargeRand(20_000)
				q.Dequeue(th)
			}
		}, func() int64 { return waits }
	})
	if allocs != 0 {
		t.Errorf("queue enqueue/dequeue with blocked producers: %v extra allocs, want 0", allocs)
	}
}
