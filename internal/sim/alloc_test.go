package sim

// Allocation pins for the contended path: once warm, blocking on a lock
// or a sequencer and being woken again must not touch the heap. These
// are the sites a shared-connection TCP run crosses on every packet.

import (
	"fmt"
	"testing"

	"repro/internal/cost"
)

// steadyStateAllocs runs body on four threads that never finish, warms
// the engine up, and returns the heap allocations per further slice of
// virtual time. blocked reports how many times a thread has had to
// wait so far; the measured slices must add to it, or the pin would
// only cover the uncontended path.
func steadyStateAllocs(t *testing.T, body func(*Thread), blocked func() int64) float64 {
	t.Helper()
	e := New(cost.NewModel(cost.Challenge100), 1)
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
			for {
				body(th)
			}
		})
	}
	defer e.Drain()
	const slice = 1_000_000 // virtual ns: ~40 critical sections per thread
	limit := int64(slice)
	e.RunUntil(limit)
	before := blocked()
	allocs := testing.AllocsPerRun(20, func() {
		limit += slice
		e.RunUntil(limit)
	})
	if n := blocked() - before; n < 100 {
		t.Fatalf("only %d blocking waits in the measured slices: not the contended path", n)
	}
	return allocs
}

func TestContendedLocksDoNotAllocate(t *testing.T) {
	for _, kind := range []LockKind{KindMutex, KindMCS, KindTicket} {
		t.Run(kind.String(), func(t *testing.T) {
			l := NewLock(kind, "pinned")
			allocs := steadyStateAllocs(t, func(th *Thread) {
				th.ChargeRand(1000)
				l.Acquire(th)
				th.Charge(5000)
				l.Release(th)
			}, func() int64 { return l.Stats().Contended })
			if allocs != 0 {
				t.Errorf("contended %s acquire/release: %v allocs per slice, want 0", kind, allocs)
			}
		})
	}
}

func TestSequencerWaitDoesNotAllocate(t *testing.T) {
	var seq Sequencer
	var waits int64
	allocs := steadyStateAllocs(t, func(th *Thread) {
		k := seq.Ticket(th)
		th.ChargeRand(20_000) // arrive at the wait out of ticket order
		th.Sync()
		if seq.serving != k {
			waits++
		}
		seq.Wait(th, k)
		th.Charge(500)
		seq.Done(th)
	}, func() int64 { return waits })
	if allocs != 0 {
		t.Errorf("Sequencer wait: %v allocs per slice, want 0", allocs)
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
	q := NewQueue("pinned", depth)
	var waits int64
	allocs := steadyStateAllocs(t, func(th *Thread) {
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
	}, func() int64 { return waits })
	if allocs != 0 {
		t.Errorf("queue enqueue/dequeue with blocked producers: %v allocs per slice, want 0", allocs)
	}
}
