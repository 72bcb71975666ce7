package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
)

func newTestEngine(seed uint64) *Engine {
	return New(cost.NewModel(cost.Challenge100), seed)
}

func TestEngineRunsThreadsInVirtualTimeOrder(t *testing.T) {
	e := newTestEngine(1)
	var order []string
	e.Spawn("a", 0, func(th *Thread) {
		th.Charge(100)
		th.Sync()
		order = append(order, "a@100")
	})
	e.Spawn("b", 1, func(th *Thread) {
		th.Charge(50)
		th.Sync()
		order = append(order, "b@50")
	})
	e.Spawn("c", 2, func(th *Thread) {
		th.Charge(200)
		th.Sync()
		order = append(order, "c@200")
	})
	e.Run()
	got := strings.Join(order, ",")
	want := "b@50,a@100,c@200"
	if got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestEngineClockAdvancesMonotonically(t *testing.T) {
	e := newTestEngine(2)
	var last int64 = -1
	for i := 0; i < 5; i++ {
		e.Spawn(fmt.Sprintf("t%d", i), i, func(th *Thread) {
			for j := 0; j < 10; j++ {
				th.Charge(int64(th.Rand().Intn(1000) + 1))
				th.Sync()
				if e.Now() < last {
					t.Errorf("clock went backwards: %d < %d", e.Now(), last)
				}
				last = e.Now()
			}
		})
	}
	e.Run()
}

func TestSleepWakesAtRequestedTime(t *testing.T) {
	e := newTestEngine(3)
	var woke int64
	e.Spawn("sleeper", 0, func(th *Thread) {
		th.Sleep(5000)
		woke = th.Now()
	})
	e.Spawn("busy", 1, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Charge(10)
			th.Sync()
		}
	})
	e.Run()
	if woke != 5000 {
		t.Fatalf("woke at %d, want 5000", woke)
	}
}

func TestSleepUntilPastIsNoop(t *testing.T) {
	e := newTestEngine(4)
	e.Spawn("t", 0, func(th *Thread) {
		th.Charge(100)
		th.SleepUntil(50)
		if th.Now() != 100 {
			t.Errorf("Now = %d, want 100", th.Now())
		}
	})
	e.Run()
}

func TestBlockAndWake(t *testing.T) {
	e := newTestEngine(5)
	var blocked *Thread
	var wokenAt int64
	e.Spawn("waiter", 0, func(th *Thread) {
		blocked = th
		th.Block("test")
		wokenAt = th.Now()
	})
	e.Spawn("waker", 1, func(th *Thread) {
		th.Sleep(1000)
		e.Wake(blocked, th.Now()+500)
	})
	e.Run()
	if wokenAt != 1500 {
		t.Fatalf("woken at %d, want 1500", wokenAt)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	e := newTestEngine(6)
	e.Spawn("stuck", 0, func(th *Thread) {
		th.Block("forever")
	})
	e.Run()
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed uint64) string {
		e := newTestEngine(seed)
		var b strings.Builder
		var mu Lock
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
				for j := 0; j < 20; j++ {
					th.ChargeRand(3000)
					mu.Acquire(th)
					fmt.Fprintf(&b, "%d", i)
					th.Charge(2000)
					mu.Release(th)
				}
			})
		}
		e.Run()
		return b.String()
	}
	a, b := trace(42), trace(42)
	if a != b {
		t.Fatalf("same seed produced different traces:\n%s\n%s", a, b)
	}
	c := trace(43)
	if a == c {
		t.Log("different seeds produced identical traces (allowed but unexpected)")
	}
}

func TestSpawnFromRunningThread(t *testing.T) {
	e := newTestEngine(8)
	var childRan bool
	e.Spawn("parent", 0, func(th *Thread) {
		th.Sleep(100)
		e.Spawn("child", 1, func(c *Thread) {
			if c.Now() < 100 {
				t.Errorf("child started at %d, before parent spawned it", c.Now())
			}
			childRan = true
		})
		th.Sleep(100)
	})
	e.Run()
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestChargeBytes(t *testing.T) {
	e := newTestEngine(9)
	e.Spawn("t", 0, func(th *Thread) {
		th.ChargeBytes(31.0, 4096)
		want := int64(31.0 * 4096)
		if th.Now() != want {
			t.Errorf("Now = %d, want %d", th.Now(), want)
		}
	})
	e.Run()
}

func TestMigrateChargesPenaltyAndMovesProc(t *testing.T) {
	e := newTestEngine(10)
	e.Spawn("t", 0, func(th *Thread) {
		before := th.Now()
		th.MigrateTo(0) // same proc: free
		if th.Now() != before {
			t.Error("same-proc migrate charged time")
		}
		th.MigrateTo(3)
		if th.Proc != 3 {
			t.Errorf("Proc = %d, want 3", th.Proc)
		}
		if th.Now() == before {
			t.Error("cross-proc migrate charged nothing")
		}
	})
	e.Run()
}

func TestRandJitterBounds(t *testing.T) {
	r := NewRand(77)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(10000, 0.05)
		if v < 9500 || v > 10500 {
			t.Fatalf("jitter out of bounds: %d", v)
		}
	}
	if r.Jitter(0, 0.5) != 0 {
		t.Fatal("jitter of 0 must be 0")
	}
	if r.Jitter(123, 0) != 123 {
		t.Fatal("zero-frac jitter must be identity")
	}
}

// checkGoroutines fails the test if the process holds more goroutines
// than at the baseline. Stopping a coroutine destroys its goroutine
// before stop returns, so there is nothing to wait for.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked: baseline %d, now %d", base, n)
	}
}

// TestCompletedRunReleasesPool: a run that completes hands its parked
// coroutines to the process list, so the finished engine holds none,
// the list stays within its bound, and draining the list ends them all.
func TestCompletedRunReleasesPool(t *testing.T) {
	ReleaseParked()
	runtime.GC()
	base := runtime.NumGoroutine()

	e := newTestEngine(1)
	for i := 0; i < 8; i++ {
		e.Spawn(fmt.Sprintf("t%d", i), i, func(th *Thread) {
			th.Charge(1000)
			th.Sync()
		})
	}
	e.Run()
	if len(e.free) != 0 || len(e.threads) != 0 {
		t.Errorf("completed engine holds %d free and %d registered threads, want none", len(e.free), len(e.threads))
	}
	if n := parkedLen(); n != 8 || n > parkedMax {
		t.Errorf("process list holds %d coroutines, want the run's 8 (bound %d)", n, parkedMax)
	}
	if n := ReleaseParked(); n != 8 {
		t.Errorf("draining ended %d coroutines, want 8", n)
	}
	checkGoroutines(t, base)
}

// TestProcessListIsBounded: engines that complete with more parked
// threads than the list has room for end the overflow, as every run
// ended every pooled coroutine before the list existed.
func TestProcessListIsBounded(t *testing.T) {
	ReleaseParked()
	runtime.GC()
	base := runtime.NumGoroutine()
	// Three engines spawn before any runs, so none adopts another's.
	var es []*Engine
	for range 3 {
		e := newTestEngine(1)
		for i := 0; i < parkedMax/2+1; i++ {
			e.Spawn("t", 0, func(th *Thread) { th.Sync() })
		}
		es = append(es, e)
	}
	for _, e := range es {
		e.Run()
	}
	if n := parkedLen(); n != parkedMax {
		t.Errorf("process list holds %d coroutines, want its bound %d", n, parkedMax)
	}
	if n := runtime.NumGoroutine() - base; n > parkedMax {
		t.Errorf("%d goroutines above the baseline, want at most the list's %d", n, parkedMax)
	}
	ReleaseParked()
	checkGoroutines(t, base)
}

// TestAdoptedThreadsStartFresh: threads adopted from the process list
// run on their new engine, with its names, processors, IDs and random
// streams, exactly as threads on new coroutines would.
func TestAdoptedThreadsStartFresh(t *testing.T) {
	run := func() string {
		e := newTestEngine(9)
		var b strings.Builder
		for i := 0; i < 4; i++ {
			e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
				for j := 0; j < 3; j++ {
					th.Charge(int64(th.Rand().Intn(1000)))
					th.Sync()
					if th.Engine() != e {
						t.Errorf("%s runs on another engine", th.Name())
					}
					fmt.Fprintf(&b, "%s@%d/p%d/id%d ", th.Name(), th.Now(), th.Proc, th.ID)
				}
			})
		}
		e.Run()
		return b.String()
	}
	ReleaseParked()
	fresh := run()
	// A first engine with another seed, names and processors leaves its
	// threads on the list, mid-stream in their random sequences.
	ReleaseParked()
	other := newTestEngine(3)
	for i := 0; i < 4; i++ {
		other.Spawn("other", 7-i, func(th *Thread) {
			th.Rand().Uint64()
			th.Sleep(5000)
		})
	}
	other.Run()
	if n := parkedLen(); n != 4 {
		t.Fatalf("process list holds %d coroutines after the first engine, want 4", n)
	}
	if got := run(); got != fresh {
		t.Errorf("adopted threads ran\n%s\nwant, as on new coroutines,\n%s", got, fresh)
	}
	if n := parkedLen(); n != 4 {
		t.Errorf("process list holds %d coroutines after the second engine, want the 4 it adopted", n)
	}
	ReleaseParked()
}

// TestFailedRunReturnsNothing: an engine that ends by a thread's panic
// or by deadlock leaves its threads parked in their coroutines and hands
// none of them to the process list.
func TestFailedRunReturnsNothing(t *testing.T) {
	for _, c := range []struct {
		name string
		body func(*Thread)
	}{
		{"panic", func(th *Thread) { th.Sleep(100); panic("boom") }},
		{"deadlock", func(th *Thread) { th.Block("forever") }},
	} {
		ReleaseParked()
		e := newTestEngine(1)
		e.Spawn("done", 0, func(th *Thread) { th.Sleep(50) })
		e.Spawn("ender", 1, c.body)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Run returned normally", c.name)
				}
			}()
			e.Run()
		}()
		if n := parkedLen(); n != 0 {
			t.Errorf("%s: the failed engine handed %d coroutines to the process list, want none", c.name, n)
		}
	}
}

func TestSpawnReusesPooledThreads(t *testing.T) {
	// A chain of 100 one-shot threads, each spawning its successor
	// before exiting: after the first handoff every Spawn should reuse
	// the just-retired struct, so the engine creates only two. The last
	// link counts them: a completed engine registers none.
	e := newTestEngine(1)
	var chain func(i int) func(*Thread)
	chain = func(i int) func(*Thread) {
		return func(th *Thread) {
			th.Charge(10)
			if i < 100 {
				e.Spawn("link", 0, chain(i+1))
			} else if got := len(e.threads); got > 2 {
				t.Errorf("100 chained spawns created %d thread structs, want <= 2 (pool reuse)", got)
			}
		}
	}
	e.Spawn("link", 0, chain(1))
	e.Run()
}

// TestThreadPanicReraisedOnRunCaller: a panic in a thread body must
// surface from Run on the caller's goroutine (anywhere else it would
// kill the process), carrying the thread's value, while the other
// threads are still mid-body.
func TestThreadPanicReraisedOnRunCaller(t *testing.T) {
	e := newTestEngine(1)
	type boom struct{ at int64 }
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("bystander%d", i), i, func(th *Thread) {
			for j := 0; j < 100; j++ {
				th.Charge(100)
				th.Sync()
			}
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
		t.Errorf("%d live threads after the panic, want the 3 bystanders", e.live)
	}
}

// TestGoexitInThreadEndsRunCaller: runtime.Goexit in a thread body
// (t.FailNow from protocol code under test, say) must end the goroutine
// that called Run, not strand it waiting for a thread that is gone.
func TestGoexitInThreadEndsRunCaller(t *testing.T) {
	e := newTestEngine(1)
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

// parkedLen returns the length of the process list.
func parkedLen() int {
	parked.Lock()
	defer parked.Unlock()
	return len(parked.ts)
}
