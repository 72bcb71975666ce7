package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

func TestRefCountModes(t *testing.T) {
	for _, mode := range []RefMode{RefAtomic, RefLocked} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			e := newTestEngine(4)
			var rc RefCount
			rc.Init(mode, 1)
			freed := 0
			for i := 0; i < 4; i++ {
				e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
					for j := 0; j < 25; j++ {
						rc.Incr(th)
						th.Charge(1000)
						if rc.Decr(th) {
							freed++
						}
					}
				})
			}
			e.Run()
			if rc.Value() != 1 {
				t.Errorf("final value = %d, want 1", rc.Value())
			}
			if freed != 0 {
				t.Errorf("freed %d times, want 0", freed)
			}
		})
	}
}

// TestRefCountLayout pins the count at 12 bytes: there is one in every
// session, TCB and MNode.
func TestRefCountLayout(t *testing.T) {
	if n := unsafe.Sizeof(RefCount{}); n != 12 {
		t.Errorf("RefCount is %d bytes, want 12", n)
	}
}

// TestRefLockedPoolAtFirstUse: a RefLocked count takes its pool lock at
// its first manipulation, round-robin in the order counts are first
// used, not the order they were initialized, and keeps its mode.
func TestRefLockedPoolAtFirstUse(t *testing.T) {
	e := newTestEngine(8)
	var a, b, c RefCount
	a.Init(RefLocked, 1)
	b.Init(RefLocked, 1)
	c.Init(RefLocked, 1)
	e.Spawn("t", 0, func(th *Thread) {
		c.Incr(th) // first used in the order c, a, b
		a.Incr(th)
		b.Incr(th)
		a.Decr(th)
		c.Decr(th)
	})
	e.Run()
	for _, x := range []struct {
		name string
		rc   *RefCount
		lock int32
	}{{"a", &a, 1}, {"b", &b, 0}, {"c", &c, 0}} {
		if got := RefMode(x.rc.word & refModeMask); got != RefLocked {
			t.Errorf("%s reads mode %v, want %v", x.name, got, RefLocked)
		}
		if got := x.rc.word>>refPoolShift - 1; got != x.lock {
			t.Errorf("%s holds pool lock %d, want %d", x.name, got, x.lock)
		}
	}
	if a0, a1 := e.refPool[0].Stats().Acquires, e.refPool[1].Stats().Acquires; a0 != 3 || a1 != 2 {
		t.Errorf("pool locks acquired %d and %d times, want 3 (b and c) and 2 (a)", a0, a1)
	}
}

func TestRefCountDecrToZero(t *testing.T) {
	e := newTestEngine(5)
	var rc RefCount
	rc.Init(RefAtomic, 2)
	e.Spawn("t", 0, func(th *Thread) {
		if rc.Decr(th) {
			t.Error("reached zero too early")
		}
		if !rc.Decr(th) {
			t.Error("did not report zero")
		}
	})
	e.Run()
}

func TestRefCountAtomicCheaperThanLocked(t *testing.T) {
	elapsed := func(mode RefMode) int64 {
		e := newTestEngine(6)
		var rc RefCount
		rc.Init(mode, 1)
		for i := 0; i < 4; i++ {
			e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
				for j := 0; j < 50; j++ {
					rc.Incr(th)
					rc.Decr(th)
				}
			})
		}
		e.Run()
		return e.Now()
	}
	a, l := elapsed(RefAtomic), elapsed(RefLocked)
	if a >= l {
		t.Fatalf("atomic refcounts (%d ns) not cheaper than locked (%d ns)", a, l)
	}
}

func TestSequencerPreservesTicketOrder(t *testing.T) {
	e := newTestEngine(7)
	var seq Sequencer
	var served []uint64
	// Threads draw tickets in a deterministic order, then try to be
	// served in scrambled timing; service order must equal ticket order.
	for i := 0; i < 6; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
			th.Sleep(int64(100 * i)) // tickets drawn in order 0..5
			k := seq.Ticket(th)
			th.Sleep(int64(th.Rand().Intn(50000))) // arrive scrambled
			seq.Wait(th, k)
			served = append(served, k)
			th.Charge(500)
			seq.Done(th)
		})
	}
	e.Run()
	for i, k := range served {
		if k != uint64(i) {
			t.Fatalf("served = %v, want ascending tickets", served)
		}
	}
}

func TestSequencerImmediateService(t *testing.T) {
	e := newTestEngine(8)
	var seq Sequencer
	e.Spawn("t", 0, func(th *Thread) {
		k := seq.Ticket(th)
		seq.Wait(th, k) // serving==0==k: must not block
		seq.Done(th)
		k2 := seq.Ticket(th)
		if k2 != 1 {
			t.Errorf("second ticket = %d, want 1", k2)
		}
		seq.Wait(th, k2)
		seq.Done(th)
	})
	e.Run()
}

func TestCondWaitSignal(t *testing.T) {
	e := newTestEngine(9)
	l := &Lock{Name: "m"}
	c := &Cond{L: l}
	ready := false
	var consumed int
	e.Spawn("consumer", 0, func(th *Thread) {
		l.Acquire(th)
		for !ready {
			c.Wait(th, "waiting for ready")
		}
		consumed = th.Rand().Intn(1) + 1
		l.Release(th)
	})
	e.Spawn("producer", 1, func(th *Thread) {
		th.Sleep(10000)
		l.Acquire(th)
		ready = true
		c.Signal(th)
		l.Release(th)
	})
	e.Run()
	if consumed == 0 {
		t.Fatal("consumer never proceeded")
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := newTestEngine(10)
	l := &Lock{Name: "m"}
	c := &Cond{L: l}
	gate := false
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
			l.Acquire(th)
			for !gate {
				c.Wait(th, "gate")
			}
			woken++
			l.Release(th)
		})
	}
	e.Spawn("opener", 5, func(th *Thread) {
		th.Sleep(5000)
		l.Acquire(th)
		gate = true
		c.Broadcast(th)
		l.Release(th)
	})
	e.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestCounterAddReturnsPrevious(t *testing.T) {
	e := newTestEngine(11)
	var c Counter
	seen := map[int64]bool{}
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
			for j := 0; j < 25; j++ {
				v := c.Add(th, 1)
				if seen[v] {
					t.Errorf("duplicate fetch-add result %d", v)
				}
				seen[v] = true
			}
		})
	}
	e.Run()
	if c.Load() != 100 {
		t.Fatalf("final = %d, want 100", c.Load())
	}
}

func TestFlag(t *testing.T) {
	var f Flag
	if f.Get() {
		t.Fatal("new flag set")
	}
	f.Set()
	if !f.Get() {
		t.Fatal("flag not set")
	}
}
