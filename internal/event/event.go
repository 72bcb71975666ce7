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

// pending is a scheduled callback, linked into its slot's chain until
// the tick that runs it unlinks it.
type pending struct {
	fn       func(*sim.Thread, any)
	arg      any
	deadline int64 // virtual ns
	next     *pending
}

// Wheel is the timing wheel. A dedicated simulation thread advances it
// tick by tick and runs due handlers; handlers execute on that thread
// and may acquire protocol locks (so timer processing contends with
// packet processing, as in the real system).
type Wheel struct {
	Tick int64 // virtual ns per tick

	heads []*pending // one chain per slot
	// chunks holds the chain locks, lockChunk to a chunk, each built the
	// first time Schedule or a tick touches one of its chains and
	// published atomically: host threads schedule concurrently. Slot i's
	// lock is lock number i%nlocks.
	chunks   []atomic.Pointer[[lockChunk]sim.Lock]
	nlocks   int
	lockKind sim.LockKind
	lockName string
	stop     *sim.Flag
	nsched   int64
	nfired   int64
	// wake ends the event thread's wait at Stop; host backend only, nil
	// on the sim, whose wait ends in virtual time.
	wake chan struct{}
}

// lockChunk is the number of chain locks built at once: a run from time
// zero that neither lasts nor schedules past 64 ticks (640 ms at the
// default tick) builds one chunk.
const lockChunk = 64

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

// New builds a wheel. Its chain locks are built on first use (lock).
func New(cfg Config) *Wheel {
	if cfg.Slots <= 0 {
		cfg.Slots = 512
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 10_000_000
	}
	name, nlocks := "evwheel", 1
	if cfg.PerChain {
		name, nlocks = "evchain", cfg.Slots
	}
	return &Wheel{
		Tick:     cfg.Tick,
		heads:    make([]*pending, cfg.Slots),
		chunks:   make([]atomic.Pointer[[lockChunk]sim.Lock], (nlocks+lockChunk-1)/lockChunk),
		nlocks:   nlocks,
		lockKind: cfg.Kind,
		lockName: name,
		stop:     &sim.Flag{},
	}
}

// slotFor maps a deadline to the chain of the first tick at or after it
// (ceiling), so a mid-tick deadline fires on the next tick rather than
// one full wheel period later.
func (w *Wheel) slotFor(deadline int64) int {
	return int(((deadline + w.Tick - 1) / w.Tick) % int64(len(w.heads)))
}

// lock returns the lock of slot i's chain, building its chunk on first
// use. Two threads that race to build one chunk both build it; the first
// to publish wins and the other's is garbage.
func (w *Wheel) lock(i int) *sim.Lock {
	i %= w.nlocks
	c := &w.chunks[i/lockChunk]
	locks := c.Load()
	if locks == nil {
		locks = (*[lockChunk]sim.Lock)(sim.NewLocks(w.lockKind, w.lockName, lockChunk))
		if !c.CompareAndSwap(nil, locks) {
			locks = c.Load()
		}
	}
	return &locks[i%lockChunk]
}

// Schedule registers fn to run delay virtual ns from the calling
// thread's current time.
func (w *Wheel) Schedule(t *sim.Thread, fn func(*sim.Thread, any), arg any, delay int64) {
	if delay < 0 {
		delay = 0
	}
	e := &pending{fn: fn, arg: arg, deadline: t.Now() + delay}
	// A deadline on a tick boundary already reached would map to a slot
	// whose tick has passed; bump it into the next tick's slot.
	slotDeadline := e.deadline
	if slotDeadline%w.Tick == 0 {
		slotDeadline++
	}
	i := w.slotFor(slotDeadline)
	l := w.lock(i)
	l.Acquire(t)
	t.ChargeRand(t.Engine().C.Stack.EventSchedule)
	e.next = w.heads[i]
	w.heads[i] = e
	t.Count(&w.nsched, 1)
	l.Release(t)
}

// Start spawns the event-manager thread on the engine. proc is the
// virtual processor charged with clock interrupts.
func (w *Wheel) Start(e *sim.Engine, proc int) {
	if e.IsHost() {
		w.wake = make(chan struct{}, 1)
	}
	e.Spawn("event-manager", proc, func(t *sim.Thread) {
		tick := (t.Now()/w.Tick + 1) * w.Tick
		for !w.stop.Get() {
			t.SleepUntilWoken(tick, w.wake)
			w.runDue(t, tick)
			tick += w.Tick
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

// runDue executes every event in the current tick's chain whose
// deadline has arrived, unlinking them in chain order.
func (w *Wheel) runDue(t *sim.Thread, now int64) {
	i := w.slotFor(now)
	l := w.lock(i)
	l.Acquire(t)
	var due []*pending
	for link := &w.heads[i]; *link != nil; {
		e := *link
		if e.deadline > now {
			link = &e.next
			continue
		}
		*link = e.next
		due = append(due, e)
	}
	l.Release(t)
	// Handlers run outside the chain lock: they are free to
	// re-schedule themselves.
	for _, e := range due {
		e.fn(t, e.arg)
		t.Count(&w.nfired, 1)
	}
}

// Counts returns (scheduled, fired) totals.
func (w *Wheel) Counts() (int64, int64) {
	return atomic.LoadInt64(&w.nsched), atomic.LoadInt64(&w.nfired)
}
