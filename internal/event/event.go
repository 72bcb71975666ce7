// Package event implements the x-kernel event manager: events to occur
// in the future, run by a dedicated thread that advances tick by tick.
// The paper's manager is a Varghese–Lauck timing wheel whose per-chain
// locks make concurrent updates unlikely to conflict (Section 2.1). Here
// the only events are TCP's two heartbeats and the send peer's ack
// flush, at most three pending at once and all scheduled and run on one
// processor, so one list under one lock serves: the lock never waits
// (EXPERIMENTS.md, "Why the event manager has one lock").
package event

import "repro/internal/sim"

// Tick is the event thread's period in virtual ns: BSD TCP's 200 ms and
// 500 ms timers land on it exactly.
const Tick = 10_000_000

// pending is a scheduled callback, linked into the list until the tick
// that runs it unlinks it.
type pending struct {
	fn       func(*sim.Thread, any)
	arg      any
	deadline int64 // virtual ns
	next     *pending
}

// Wheel is the event manager. A dedicated simulation thread advances it
// tick by tick and runs due handlers; handlers execute on that thread
// and may acquire protocol locks (so timer processing contends with
// packet processing, as in the real system).
type Wheel struct {
	lock sim.Lock
	head *pending // newest first
	stop sim.Flag
	// wake ends the event thread's wait at Stop; host backend only, nil
	// on the sim, whose wait ends in virtual time.
	wake chan struct{}
}

// New builds an empty event manager.
func New() *Wheel {
	w := &Wheel{}
	w.lock.Name = "evwheel"
	return w
}

// Schedule registers fn to run delay virtual ns from the calling
// thread's current time.
func (w *Wheel) Schedule(t *sim.Thread, fn func(*sim.Thread, any), arg any, delay int64) {
	e := &pending{fn: fn, arg: arg, deadline: t.Now() + max(delay, 0)}
	w.lock.Acquire(t)
	t.ChargeRand(t.Engine().C.Stack.EventSchedule)
	e.next, w.head = w.head, e
	w.lock.Release(t)
}

// Start spawns the event-manager thread on the engine. proc is the
// virtual processor charged with clock interrupts.
func (w *Wheel) Start(e *sim.Engine, proc int) {
	if e.IsHost() {
		w.wake = make(chan struct{}, 1)
	}
	e.Spawn("event-manager", proc, func(t *sim.Thread) {
		for tick := (t.Now()/Tick + 1) * Tick; !w.stop.Get(); tick += Tick {
			t.SleepUntilWoken(tick, w.wake)
			w.runDue(t, tick)
		}
	})
}

// Stop makes the event thread exit at its next tick, or at once on the
// host backend, where that tick is up to a wall-clock Tick away.
func (w *Wheel) Stop() {
	w.stop.Set()
	select {
	case w.wake <- struct{}{}:
	default: // the sim backend (nil wake), or a wake already sent
	}
}

// runDue runs every event whose deadline lies before the tick at now,
// newest first: an event runs at the first tick strictly after its
// deadline.
func (w *Wheel) runDue(t *sim.Thread, now int64) {
	w.lock.Acquire(t)
	var due []*pending
	for link := &w.head; *link != nil; {
		e := *link
		if e.deadline >= now {
			link = &e.next
			continue
		}
		*link = e.next
		due = append(due, e)
	}
	w.lock.Release(t)
	// Handlers run outside the lock: they are free to re-schedule
	// themselves.
	for _, e := range due {
		e.fn(t, e.arg)
	}
}
