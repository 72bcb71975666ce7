// Package event implements the x-kernel event manager: a timing wheel
// (Varghese & Lauck) managing events to occur in the future. The wheel
// is a chained-bucket hash table hashed on the event's scheduled time;
// per-chain locks make concurrent updates unlikely to conflict
// (Section 2.1 of the paper). A single-lock mode exists for ablation.
package event

import (
	"sync/atomic"

	"repro/internal/sim"
)

// State tracks an event through its lifecycle.
type State int32

const (
	// StatePending: scheduled, not yet run.
	StatePending State = iota
	// StateRunning: handler executing.
	StateRunning
	// StateDone: handler finished.
	StateDone
	// StateCancelled: cancelled before running.
	StateCancelled
)

// Event is a scheduled callback. Its state is manipulated atomically:
// per-chain locks protect the lists, but a handler's completion (set
// outside any chain lock) can race a Cancel on the host backend.
type Event struct {
	fn       func(*sim.Thread, any)
	arg      any
	deadline int64 // virtual ns
	state    atomic.Int32
	slot     int
	prev     *Event
	next     *Event
}

// State returns the event's current state.
func (e *Event) State() State { return State(e.state.Load()) }

type chain struct {
	lock sim.Locker
	head *Event
}

// Wheel is the timing wheel. A dedicated simulation thread advances it
// tick by tick and runs due handlers; handlers execute on that thread
// and may acquire protocol locks (so timer processing contends with
// packet processing, as in the real system).
type Wheel struct {
	Tick int64 // virtual ns per tick

	chains   []chain
	perChain bool
	single   sim.Locker
	stop     *sim.Flag
	nsched   int64
	ncancel  int64
	nfired   int64
}

// Config controls wheel construction.
type Config struct {
	Slots    int   // number of chains
	Tick     int64 // virtual ns per wheel tick
	PerChain bool  // per-chain locks (the paper's design) vs one lock
	Kind     sim.LockKind
}

// DefaultConfig is a 512-slot, 10 ms wheel with per-chain spin locks —
// BSD TCP's 200 ms / 500 ms timers land comfortably on it.
func DefaultConfig() Config {
	return Config{Slots: 512, Tick: 10_000_000, PerChain: true, Kind: sim.KindMutex}
}

// New builds a wheel.
func New(cfg Config) *Wheel {
	if cfg.Slots <= 0 {
		cfg.Slots = 512
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 10_000_000
	}
	w := &Wheel{
		Tick:     cfg.Tick,
		chains:   make([]chain, cfg.Slots),
		perChain: cfg.PerChain,
		stop:     &sim.Flag{},
	}
	if cfg.PerChain {
		for i := range w.chains {
			w.chains[i].lock = sim.NewLock(cfg.Kind, "evchain")
		}
	} else {
		w.single = sim.NewLock(cfg.Kind, "evwheel")
		for i := range w.chains {
			w.chains[i].lock = w.single
		}
	}
	return w
}

// slotFor maps a deadline to the chain of the first tick at or after it
// (ceiling), so a mid-tick deadline fires on the next tick rather than
// one full wheel period later.
func (w *Wheel) slotFor(deadline int64) int {
	return int(((deadline + w.Tick - 1) / w.Tick) % int64(len(w.chains)))
}

// Schedule registers fn to run delay virtual ns from the calling
// thread's current time.
func (w *Wheel) Schedule(t *sim.Thread, fn func(*sim.Thread, any), arg any, delay int64) *Event {
	if delay < 0 {
		delay = 0
	}
	e := &Event{fn: fn, arg: arg, deadline: t.Now() + delay}
	e.state.Store(int32(StatePending))
	// A deadline on a tick boundary already reached would map to a slot
	// whose tick has passed; bump it into the next tick's slot.
	slotDeadline := e.deadline
	if slotDeadline%w.Tick == 0 {
		slotDeadline++
	}
	e.slot = w.slotFor(slotDeadline)
	c := &w.chains[e.slot]
	c.lock.Acquire(t)
	t.ChargeRand(t.Engine().C.Stack.EventSchedule)
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	t.Count(&w.nsched, 1)
	c.lock.Release(t)
	return e
}

// Cancel removes a pending event; it returns false if the event already
// ran (or is running).
func (w *Wheel) Cancel(t *sim.Thread, e *Event) bool {
	c := &w.chains[e.slot]
	c.lock.Acquire(t)
	t.ChargeRand(t.Engine().C.Stack.EventCancel)
	if e.State() != StatePending {
		c.lock.Release(t)
		return false
	}
	e.state.Store(int32(StateCancelled))
	w.unlink(c, e)
	t.Count(&w.ncancel, 1)
	c.lock.Release(t)
	return true
}

func (w *Wheel) unlink(c *chain, e *Event) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.prev, e.next = nil, nil
}

// Start spawns the event-manager thread on the engine. proc is the
// virtual processor charged with clock interrupts.
func (w *Wheel) Start(e *sim.Engine, proc int) {
	e.Spawn("event-manager", proc, func(t *sim.Thread) {
		tick := (t.Now()/w.Tick + 1) * w.Tick
		for !w.stop.Get() {
			t.SleepUntil(tick)
			w.runDue(t, tick)
			tick += w.Tick
		}
	})
}

// Stop makes the event thread exit at its next tick.
func (w *Wheel) Stop() { w.stop.Set() }

// runDue executes every pending event in the current tick's chain whose
// deadline has arrived.
func (w *Wheel) runDue(t *sim.Thread, now int64) {
	c := &w.chains[w.slotFor(now)]
	c.lock.Acquire(t)
	var due []*Event
	for e := c.head; e != nil; {
		next := e.next
		if e.State() == StatePending && e.deadline <= now {
			e.state.Store(int32(StateRunning))
			w.unlink(c, e)
			due = append(due, e)
		}
		e = next
	}
	c.lock.Release(t)
	// Handlers run outside the chain lock: they are free to
	// re-schedule themselves or cancel others.
	for _, e := range due {
		e.fn(t, e.arg)
		e.state.Store(int32(StateDone))
		t.Count(&w.nfired, 1)
	}
}

// Counts returns (scheduled, cancelled, fired) totals.
func (w *Wheel) Counts() (int64, int64, int64) {
	return atomic.LoadInt64(&w.nsched), atomic.LoadInt64(&w.ncancel), atomic.LoadInt64(&w.nfired)
}
