package sim

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

var updateSchedule = flag.Bool("update-schedule", false,
	"rewrite testdata/schedule_golden.txt from the current engine")

// TestScheduleMatchesGolden pins the engine's scheduling decisions line
// for line. testdata/schedule_golden.txt was captured before the yield
// fast path existed (every Sync pushed, popped and went through step);
// any engine that produces a different Trace log, a different order of
// thread-visible effects, or samples telemetry at different moments has
// changed the virtual-time schedule, not just its host cost. Trace is
// set, so the decisions the fast path takes are in the log as well.
func TestScheduleMatchesGolden(t *testing.T) {
	var b strings.Builder
	for _, seed := range []uint64{1994, 7} {
		fmt.Fprintf(&b, "== random program, 8 threads, seed %d\n", seed)
		b.WriteString(scheduleRandom(seed))
	}
	b.WriteString("== equal clocks\n")
	b.WriteString(scheduleEqualClocks())
	b.WriteString("== woken in the past\n")
	b.WriteString(scheduleWokenInPast())
	uncut := scheduleAtLimit()
	b.WriteString("== at the limit\n")
	b.WriteString(uncut)
	if sliced := scheduleAtLimit(100, 101, 300, 449, 450, 451, 900, 1000); sliced != uncut {
		t.Errorf("at-the-limit program scheduled differently when sliced:\n%s", firstDiff(sliced, uncut))
	}
	got := b.String()

	const path = "testdata/schedule_golden.txt"
	if *updateSchedule {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("schedule differs from %s:\n%s", path, firstDiff(got, string(want)))
	}
}

// firstDiff reports the first line at which two logs part ways.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("one log is a prefix of the other: %d lines vs %d", len(g), len(w))
}

// tracedEngine returns an engine whose scheduling decisions, and whatever
// the threads note, accumulate in the returned log.
func tracedEngine(seed uint64) (*Engine, *strings.Builder, func(*Thread, string)) {
	e := newTestEngine(seed)
	log := &strings.Builder{}
	e.Trace = func(s string) { log.WriteString(s + "\n") }
	note := func(th *Thread, what string) {
		fmt.Fprintf(log, "  %s %s vt=%d\n", th.Name(), what, th.Now())
	}
	return e, log, note
}

// scheduleRandom runs eight threads through a fixed random mix of every
// engine interaction — jittered and grid-aligned charges, the three lock
// kinds, the sequencer, sleeps, Block/Wake (some wakes land in the
// past), Spawn, Counter, RefCount, Yield — and returns the scheduling
// log followed by the telemetry samples taken along the way.
func scheduleRandom(seed uint64) string {
	e, log, note := tracedEngine(seed)
	var (
		mu     = Mutex{Name: "mu"}
		mcs    = MCSLock{Name: "mcs"}
		tk     = TicketLock{Name: "tk"}
		seq    Sequencer
		ctr    Counter
		ref    RefCount
		parked []*Thread
		active int
		kids   int
		ops    int64
	)
	ref.Init(RefAtomic, 1)
	reg := telemetry.NewRegistry(1 << 12)
	reg.Gauge("ops", -1, func() int64 { return ops })
	e.Tel = telemetry.NewSampler(reg, 2500, 8)

	var body func(steps int, mayNest bool) func(*Thread)
	body = func(steps int, mayNest bool) func(*Thread) {
		return func(th *Thread) {
			r := th.Rand()
			for j := 0; j < steps; j++ {
				ops++
				switch r.Intn(13) {
				case 0:
					th.ChargeRand(3000)
					th.Sync()
				case 1: // coarse charge: lands on other threads' clocks
					th.Charge(int64(100 * (1 + r.Intn(3))))
					th.Sync()
				case 2: // back onto the 1 µs grid, where clocks tie
					th.SleepUntil((th.Now()/1000 + 1) * 1000)
					note(th, "grid")
				case 3:
					mu.Acquire(th)
					note(th, "mu")
					th.ChargeRand(2000)
					mu.Release(th)
				case 4:
					mcs.Acquire(th)
					note(th, "mcs")
					th.ChargeRand(2000)
					mcs.Release(th)
				case 5:
					tk.Acquire(th)
					note(th, "tk")
					th.Charge(1000)
					tk.Release(th)
				case 6:
					k := seq.Ticket(th)
					th.ChargeRand(1500)
					seq.Wait(th, k)
					note(th, fmt.Sprintf("seq %d", k))
					th.Charge(200)
					seq.Done(th)
				case 7:
					th.Sleep(int64(r.Intn(5000)))
				case 8: // park, unless that could leave nobody to wake us
					th.Sync()
					if active-len(parked) > 1 {
						parked = append(parked, th)
						th.Block("parked")
						note(th, "woken")
					}
				case 9: // wake the longest-parked thread, sometimes in the past
					th.Sync()
					if len(parked) > 0 {
						w := parked[0]
						parked = parked[1:]
						e.Wake(w, th.Now()+int64(r.Intn(2000))-500)
					}
				case 10:
					th.Sync()
					if mayNest && kids < 6 {
						kids++
						active++
						e.Spawn(fmt.Sprintf("%s.k%d", th.Name(), kids), th.Proc, body(6, false))
					}
				case 11:
					note(th, fmt.Sprintf("ctr %d", ctr.Add(th, 1)))
					ref.Incr(th)
					ref.Decr(th)
				case 12:
					th.Yield()
				}
			}
			th.Sync()
			active--
			for _, w := range parked {
				e.Wake(w, th.Now())
			}
			parked = parked[:0]
			note(th, "done")
		}
	}
	for i := 0; i < 8; i++ {
		active++
		e.Spawn(fmt.Sprintf("w%d", i), i, body(40, true))
	}
	e.Run()

	ts, v := reg.Series()[0].Samples()
	for i := range ts {
		fmt.Fprintf(log, "sample t=%d ops=%d\n", ts[i], v[i])
	}
	return log.String()
}

// scheduleEqualClocks: threads whose clocks coincide at every Sync run
// in the order they last yielded.
func scheduleEqualClocks() string {
	e, log, note := tracedEngine(1)
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
			for j := 0; j < 3; j++ {
				th.Charge(100)
				th.Sync()
				note(th, "round")
			}
		})
	}
	// One thread a nanosecond ahead of the pack and one a nanosecond
	// behind: strictly smaller keeps running, equal does not.
	e.Spawn("early", 3, func(th *Thread) {
		th.Charge(99)
		th.Sync()
		note(th, "early")
		th.Charge(1) // now level with w0..w2 at 100, but behind them
		th.Sync()
		note(th, "level")
	})
	e.Spawn("late", 4, func(th *Thread) {
		th.Charge(301)
		th.Sync()
		note(th, "late")
	})
	e.Run()
	return log.String()
}

// scheduleWokenInPast: a Wake stamped earlier than the engine clock
// resumes the sleeper at the clock, ahead of a waker that Syncs at the
// same instant.
func scheduleWokenInPast() string {
	e, log, note := tracedEngine(1)
	var sleeper *Thread
	e.Spawn("sleeper", 0, func(th *Thread) {
		sleeper = th
		th.Block("test")
		note(th, "woken")
		th.Sync()
		note(th, "again")
	})
	e.Spawn("waker", 1, func(th *Thread) {
		th.Sleep(1000)
		e.Wake(sleeper, 500)
		th.Sync()
		note(th, "after wake")
		th.Charge(10)
		th.Sync()
		note(th, "end")
	})
	e.Run()
	return log.String()
}

// scheduleAtLimit runs two threads whose clocks land exactly on, one
// before and one past the RunUntil limits given, then runs to the end.
// No two clocks tie beyond a limit, so a sliced run and an uncut one
// must log the same schedule.
func scheduleAtLimit(limits ...int64) string {
	e, log, note := tracedEngine(1)
	e.Spawn("a", 0, func(th *Thread) {
		for j := 0; j < 6; j++ {
			th.Sleep(100)
			note(th, "tick")
		}
	})
	e.Spawn("b", 1, func(th *Thread) {
		for j := 0; j < 4; j++ {
			th.Sleep(150)
			note(th, "tock")
		}
		th.Sleep(350)
		note(th, "last")
		th.Sleep(100) // a is done: the heap is empty when b yields
		note(th, "alone")
	})
	for _, l := range limits {
		if e.RunUntil(l) == 0 {
			panic(fmt.Sprintf("run finished before limit %d", l))
		}
	}
	e.Run()
	return log.String()
}
