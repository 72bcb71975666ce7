package sim

import (
	"fmt"
	"strings"
	"testing"

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

func TestRunUntilStopsAtLimit(t *testing.T) {
	e := newTestEngine(7)
	steps := 0
	e.Spawn("t", 0, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Sleep(100)
			steps++
		}
	})
	live := e.RunUntil(450)
	if live != 1 {
		t.Fatalf("live = %d, want 1", live)
	}
	if steps != 4 {
		t.Fatalf("steps = %d, want 4 (t=100..400)", steps)
	}
	e.RunUntil(-1)
	if steps != 100 {
		t.Fatalf("steps after full run = %d, want 100", steps)
	}
}

// TestRunUntilLimitIsInclusive: a thread whose clock equals the limit
// runs before RunUntil returns, one a nanosecond later does not — the
// same rule whether the thread reaches the limit while running or
// parked, alone or handed to by another.
func TestRunUntilLimitIsInclusive(t *testing.T) {
	for _, threads := range []int{1, 2} {
		e := newTestEngine(13)
		steps := make([]int, threads)
		for i := range steps {
			e.Spawn(fmt.Sprintf("t%d", i), i, func(th *Thread) {
				for j := 0; j < 10; j++ {
					th.Sleep(100)
					steps[th.Proc]++
				}
			})
		}
		for _, c := range []struct {
			limit int64
			want  int
		}{{300, 3}, {300, 3}, {301, 3}, {399, 3}, {400, 4}, {600, 6}} {
			e.RunUntil(c.limit)
			for i, n := range steps {
				if n != c.want {
					t.Errorf("%d threads, RunUntil(%d): t%d took %d steps, want %d", threads, c.limit, i, n, c.want)
				}
			}
		}
		e.Drain()
	}
}

// TestRunUntilResumesWhereItStopped cuts one run into many RunUntil
// slices: every thread — running ahead, ready, or blocked on the lock
// when a limit lands — must pick up exactly where it parked, so the
// scheduling log and the result match an uncut run.
func TestRunUntilResumesWhereItStopped(t *testing.T) {
	run := func(limits ...int64) (string, int64) {
		e := newTestEngine(11)
		var log strings.Builder
		e.Trace = func(s string) { log.WriteString(s + "\n") }
		var mu Mutex
		var sum int64
		for i := 0; i < 4; i++ {
			e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
				for j := 0; j < 25; j++ {
					th.ChargeRand(3000)
					mu.Acquire(th)
					sum = sum*31 + int64(th.Proc)
					th.ChargeRand(2000)
					mu.Release(th)
				}
			})
		}
		for _, l := range limits {
			if e.RunUntil(l) == 0 {
				t.Fatalf("run finished before limit %d", l)
			}
		}
		e.Run()
		return log.String(), sum
	}
	wantLog, wantSum := run()
	gotLog, gotSum := run(1, 777, 5000, 5001, 40_000, 100_000)
	if gotSum != wantSum {
		t.Errorf("sliced run computed %d, uncut run %d", gotSum, wantSum)
	}
	if gotLog != wantLog {
		t.Errorf("sliced run scheduled differently from the uncut run:\n--- sliced\n%s--- uncut\n%s", gotLog, wantLog)
	}
}

// TestRunUntilSliceKeepsTieOrder: a limit that lands while several
// threads wait at one clock must not reshuffle them. The engine used to
// pop the minimum to look at it and push it back behind its peers, so
// the sliced run below logged w1 w2 w0 per round.
func TestRunUntilSliceKeepsTieOrder(t *testing.T) {
	run := func(limits ...int64) string {
		e := newTestEngine(12)
		var order []string
		for i := 0; i < 3; i++ {
			e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
				for j := 0; j < 3; j++ {
					th.Charge(100)
					th.Sync()
					order = append(order, th.Name())
				}
			})
		}
		for _, l := range limits {
			e.RunUntil(l)
		}
		e.Run()
		return strings.Join(order, " ")
	}
	const want = "w0 w1 w2 w0 w1 w2 w0 w1 w2"
	if got := run(); got != want {
		t.Fatalf("uncut run: %s, want %s", got, want)
	}
	for _, limits := range [][]int64{{50}, {0, 99}, {100, 150, 250}, {50, 50, 199, 299}} {
		if got := run(limits...); got != want {
			t.Errorf("RunUntil%v then Run: %s, want %s", limits, got, want)
		}
	}
}

// TestRunUntilResumesOnTies is TestRunUntilResumesWhereItStopped without
// jitter: every charge is a round number, so clocks tie constantly — on
// Syncs, on the lock, at the limits themselves — and each slice boundary
// falls among equal-clock threads.
func TestRunUntilResumesOnTies(t *testing.T) {
	run := func(limits ...int64) (string, int64) {
		e := newTestEngine(11)
		var log strings.Builder
		e.Trace = func(s string) { log.WriteString(s + "\n") }
		var mu MCSLock
		var sum int64
		for i := 0; i < 4; i++ {
			e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
				for j := 0; j < 25; j++ {
					th.Charge(3000)
					th.Sync()
					mu.Acquire(th)
					sum = sum*31 + int64(th.Proc)
					th.Charge(2000)
					mu.Release(th)
				}
			})
		}
		for _, l := range limits {
			if e.RunUntil(l) == 0 {
				t.Fatalf("run finished before limit %d", l)
			}
		}
		e.Run()
		return log.String(), sum
	}
	wantLog, wantSum := run()
	gotLog, gotSum := run(0, 2999, 3000, 3001, 5000, 12_000, 40_000, 100_000)
	if gotSum != wantSum {
		t.Errorf("sliced run computed %d, uncut run %d", gotSum, wantSum)
	}
	if gotLog != wantLog {
		t.Errorf("sliced run scheduled differently from the uncut run:\n%s", firstDiff(gotLog, wantLog))
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed uint64) string {
		e := newTestEngine(seed)
		var b strings.Builder
		var mu Mutex
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
