package sim

// Goroutine-lifecycle tests: a truncated RunUntil must not leak parked
// thread coroutines once the engine is drained, and a run that completes
// must release its pool on its own.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/cost"
)

// checkGoroutines fails the test if the process holds more goroutines
// than at the baseline. Stopping a coroutine destroys its goroutine
// before stop returns, so there is nothing to wait for.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked: baseline %d, now %d", base, n)
	}
}

func spinForever(th *Thread) {
	for {
		th.Charge(100)
		th.Sync()
	}
}

func TestDrainReleasesTruncatedRun(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	e := New(cost.NewModel(cost.Challenge100), 1)
	for i := 0; i < 8; i++ {
		e.Spawn(fmt.Sprintf("t%d", i), i, spinForever)
	}
	if left := e.RunUntil(50_000); left != 8 {
		t.Fatalf("RunUntil = %d live threads, want 8", left)
	}
	e.Drain()
	checkGoroutines(t, base)
}

func TestCompletedRunReleasesPool(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	e := New(cost.NewModel(cost.Challenge100), 1)
	for i := 0; i < 8; i++ {
		e.Spawn(fmt.Sprintf("t%d", i), i, func(th *Thread) {
			th.Charge(1000)
			th.Sync()
		})
	}
	e.Run()
	checkGoroutines(t, base)
}

func TestDrainUnwindsBlockedThreads(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	// One thread holds the mutex past the limit; the others park on it.
	// Drain must unwind blocked threads too, including any deferred
	// Release that re-enters the scheduler mid-unwind.
	e := New(cost.NewModel(cost.Challenge100), 1)
	var m Mutex
	e.Spawn("holder", 0, func(th *Thread) {
		m.Acquire(th)
		defer m.Release(th)
		for {
			th.Charge(1000)
			th.Sync()
		}
	})
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("waiter%d", i), i+1, func(th *Thread) {
			th.Charge(10)
			m.Acquire(th)
			m.Release(th)
		})
	}
	if left := e.RunUntil(100_000); left == 0 {
		t.Fatal("expected live threads at the limit")
	}
	e.Drain()
	checkGoroutines(t, base)
}

func TestEngineUsableAfterDrain(t *testing.T) {
	e := New(cost.NewModel(cost.Challenge100), 1)
	e.Spawn("spin", 0, spinForever)
	e.RunUntil(10_000)
	e.Drain()

	ran := false
	e.Spawn("again", 0, func(th *Thread) {
		th.Charge(10)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("thread spawned after Drain did not run")
	}
}

func TestSpawnReusesPooledThreads(t *testing.T) {
	// A chain of 100 one-shot threads, each spawning its successor
	// before exiting: after the first handoff every Spawn should reuse
	// the just-retired struct, so the engine creates only two.
	e := New(cost.NewModel(cost.Challenge100), 1)
	var chain func(i int) func(*Thread)
	chain = func(i int) func(*Thread) {
		return func(th *Thread) {
			th.Charge(10)
			if i < 100 {
				e.Spawn("link", 0, chain(i+1))
			}
		}
	}
	e.Spawn("link", 0, chain(1))
	e.Run()
	if got := len(e.threads); got > 2 {
		t.Fatalf("100 chained spawns created %d thread structs, want <= 2 (pool reuse)", got)
	}
}

// TestDrainUnwindsStartedReleasesTheRest truncates a run that leaves
// threads parked inside their bodies (one ready, one blocked), a pooled
// struct re-spawned but never started, and pooled idle ones, and checks
// that Drain runs the deferred functions of exactly the started
// threads, even when a deferred function tries to park again, and that
// no goroutine outlives it.
func TestDrainUnwindsStartedReleasesTheRest(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	e := New(cost.NewModel(cost.Challenge100), 1)
	var m Mutex
	var outer, inner, pastPark, waiterDefer, neverRan int
	e.Spawn("holder", 0, func(th *Thread) {
		defer func() { outer++ }()
		defer func() {
			inner++
			m.Release(th) // Syncs: parks again mid-unwind
			pastPark++
		}()
		m.Acquire(th)
		spinForever(th)
	})
	e.Spawn("waiter", 1, func(th *Thread) {
		defer func() { waiterDefer++ }()
		th.Charge(10)
		m.Acquire(th)
		m.Release(th)
	})
	for i := 0; i < 3; i++ {
		e.Spawn("short", 2+i, func(th *Thread) { th.Charge(10) })
	}
	if left := e.RunUntil(50_000); left != 2 {
		t.Fatalf("RunUntil = %d live threads, want 2", left)
	}
	if len(e.free) != 3 {
		t.Fatalf("%d pooled threads after the short ones finished, want 3", len(e.free))
	}
	e.Spawn("reused-never-started", 2, func(*Thread) { neverRan++ })
	if len(e.free) != 2 {
		t.Fatalf("%d pooled threads after one re-spawn, want 2", len(e.free))
	}

	e.Drain()
	checkGoroutines(t, base)
	if outer != 1 || inner != 1 || waiterDefer != 1 {
		t.Errorf("deferred functions ran outer=%d inner=%d waiter=%d times, want 1 each", outer, inner, waiterDefer)
	}
	if pastPark != 0 {
		t.Error("a deferred function that parked during Drain kept running")
	}
	if neverRan != 0 {
		t.Error("a never-started thread body ran during Drain")
	}
	if e.live != 0 || len(e.free) != 0 || len(e.heap) != 0 {
		t.Errorf("after Drain: live=%d pooled=%d runnable=%d, want all 0", e.live, len(e.free), len(e.heap))
	}
}

// TestDrainReraisesPanicFromDefer: a deferred function that panics
// while Drain unwinds its thread must not stop the release of the
// others; Drain raises its value once the engine is empty.
func TestDrainReraisesPanicFromDefer(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	e := New(cost.NewModel(cost.Challenge100), 1)
	unwound := 0
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("t%d", i), i, func(th *Thread) {
			defer func() {
				unwound++
				if th.Proc == 0 {
					panic("cleanup failed")
				}
			}()
			spinForever(th)
		})
	}
	e.RunUntil(10_000)
	func() {
		defer func() {
			if r := recover(); r != "cleanup failed" {
				t.Errorf("Drain panicked with %v, want the deferred function's value", r)
			}
		}()
		e.Drain()
	}()
	if unwound != 3 || e.live != 0 {
		t.Errorf("unwound %d of 3 threads, %d still live", unwound, e.live)
	}
	checkGoroutines(t, base)
	if e.RunUntil(-1) != 0 {
		t.Error("engine not reusable after Drain re-raised")
	}
}

// TestDrainBeforeRun: threads spawned on an engine that is never run
// have no stack to unwind; Drain must release them without running
// their bodies.
func TestDrainBeforeRun(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	e := New(cost.NewModel(cost.Challenge100), 1)
	ran := 0
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("t%d", i), i, func(*Thread) { ran++ })
	}
	e.Drain()
	if ran != 0 {
		t.Errorf("%d never-started thread bodies ran during Drain", ran)
	}
	checkGoroutines(t, base)
	if e.live != 0 {
		t.Errorf("live = %d after Drain, want 0", e.live)
	}
}

// TestThreadPanicReraisedOnRunCaller: a panic in a thread body must
// surface from Run on the caller's goroutine (anywhere else it would
// kill the process), carrying the thread's value, and leave the other
// threads parked where Drain can release them.
func TestThreadPanicReraisedOnRunCaller(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	e := New(cost.NewModel(cost.Challenge100), 1)
	type boom struct{ at int64 }
	unwound := 0
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("bystander%d", i), i, func(th *Thread) {
			defer func() { unwound++ }()
			spinForever(th)
		})
	}
	e.Spawn("bomb", 3, func(th *Thread) {
		th.Sleep(5000)
		panic(boom{th.Now()})
	})
	func() {
		defer func() {
			if r := recover(); r != (boom{5000}) {
				t.Errorf("Run panicked with %v, want %v", r, boom{5000})
			}
		}()
		e.Run()
		t.Error("Run returned normally after a thread panic")
	}()
	if e.live != 3 {
		t.Fatalf("%d live threads after the panic, want the 3 bystanders", e.live)
	}
	e.Drain()
	if unwound != 3 {
		t.Errorf("Drain unwound %d bystanders, want 3", unwound)
	}
	checkGoroutines(t, base)
}

// TestGoexitInThreadEndsRunCaller: runtime.Goexit in a thread body
// (t.FailNow from protocol code under test, say) must end the goroutine
// that called Run, not strand it waiting for a thread that is gone.
func TestGoexitInThreadEndsRunCaller(t *testing.T) {
	e := New(cost.NewModel(cost.Challenge100), 1)
	e.Spawn("quitter", 0, func(th *Thread) {
		th.Sleep(100)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run caller still waiting after Goexit in a thread body")
	}
	if returned {
		t.Error("Run returned normally; want its goroutine ended by the Goexit")
	}
}
