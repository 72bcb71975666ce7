package sim

// Higher-level synchronization objects built on the simulated locks:
// counting (recursive) locks for the map manager, reference counts in
// atomic or lock-based mode, the bakery sequencer used for order
// preservation above TCP, condition variables, and shared counters.
//
// The shared cells (Flag, Counter, RefCount, CountingLock ownership)
// use Go atomics. In sim mode the engine serializes execution, so the
// atomics are not needed for correctness and values stay deterministic;
// in host mode they are what makes concurrent access race-clean. They
// are not free in sim mode, though: an atomic store is an XCHG and an
// atomic add a LOCK XADD, each a full fence, and with a Sync that keeps
// running down to a compare they show: in a CPU profile of the
// single-processor UDP receive workload of bench/ (udp-recv-1p-1k)
// CountingLock's owner stores are 13 % of host CPU and RefCount's
// Int32.Add 6 %, with Rand.Jitter's float arithmetic another 9 %
// (ROADMAP, "Fewer handoffs per packet"). Virtual-time charging (Sync,
// Charge, chargeLine) is sim-only and skipped on the host backend.

import (
	"sync"
	"sync/atomic"
)

// CountingLock is the recursive lock the x-kernel map manager needs:
// mapForEach can call back into map operations on the same thread, so if
// the owner re-acquires, a count is incremented instead of deadlocking
// (Section 2.1).
type CountingLock struct {
	inner Locker
	owner atomic.Pointer[Thread]
	// depth is only touched by the current owner, under the inner
	// lock's happens-before edges.
	depth int
}

// NewCountingLock wraps a lock of the given kind.
func NewCountingLock(kind LockKind, name string) *CountingLock {
	return &CountingLock{inner: NewLock(kind, name)}
}

// Acquire takes the lock, or increments the count if t already owns it.
func (c *CountingLock) Acquire(t *Thread) {
	if c.owner.Load() == t {
		c.depth++
		return
	}
	c.inner.Acquire(t)
	c.owner.Store(t)
	c.depth = 1
}

// Release decrements the count, releasing the lock at zero.
func (c *CountingLock) Release(t *Thread) {
	if c.owner.Load() != t {
		panic("sim: CountingLock.Release by non-owner")
	}
	c.depth--
	if c.depth == 0 {
		c.owner.Store(nil)
		c.inner.Release(t)
	}
}

// Stats reports the inner lock's statistics.
func (c *CountingLock) Stats() LockStats { return c.inner.Stats() }

// RefMode selects how reference counts are manipulated (Section 5.2).
type RefMode int

const (
	// RefAtomic uses load-linked/store-conditional atomic increment
	// and decrement: one shared-line touch, no lock.
	RefAtomic RefMode = iota
	// RefLocked uses the classic lock-increment-unlock sequence.
	RefLocked
)

func (m RefMode) String() string {
	if m == RefAtomic {
		return "atomic"
	}
	return "locked"
}

// RefCount is a reference count on a shared object (MNodes, sessions,
// protocol state). In RefAtomic mode a manipulation charges a single
// LL/SC atomic op; in RefLocked mode it is a lock-increment-unlock
// sequence through the engine's finite pool of static global locks,
// paying the procedure-call and memory-write overhead the paper's
// Section 5.2 eliminates. Both modes pay coherence when the count
// bounces between processors.
type RefCount struct {
	mode     RefMode
	v        atomic.Int32
	lastProc int
	pool     atomic.Pointer[Mutex]
	inited   bool
}

// Init sets the mode and initial value. Must be called before use.
func (r *RefCount) Init(mode RefMode, v int32) {
	r.mode = mode
	r.v.Store(v)
	r.lastProc = -1
	r.pool.Store(nil)
	r.inited = true
}

// lock resolves this count's static pool lock (assigned round-robin on
// first use, deterministically per engine).
func (r *RefCount) lock(t *Thread) *Mutex {
	if p := r.pool.Load(); p != nil {
		return p
	}
	e := t.eng
	if h := e.host; h != nil {
		h.mu.Lock()
		if r.pool.Load() == nil {
			r.pool.Store(&e.refPool[e.refSeq%len(e.refPool)])
			e.refSeq++
		}
		h.mu.Unlock()
		return r.pool.Load()
	}
	r.pool.Store(&e.refPool[e.refSeq%len(e.refPool)])
	e.refSeq++
	return r.pool.Load()
}

// Incr atomically increments the count.
func (r *RefCount) Incr(t *Thread) {
	if r.mode == RefAtomic {
		if t.eng.host == nil {
			t.Sync()
			t.Charge(t.eng.C.Sync.Atomic)
			chargeLine(t, &r.lastProc)
		}
		r.v.Add(1)
		return
	}
	lk := r.lock(t)
	lk.Acquire(t)
	if t.eng.host == nil {
		t.Charge(t.eng.C.Sync.RefLockedWork)
		chargeLine(t, &r.lastProc)
	}
	r.v.Add(1)
	lk.Release(t)
}

// Decr atomically decrements the count and reports whether it reached
// zero (the caller then frees the object).
func (r *RefCount) Decr(t *Thread) bool {
	if r.mode == RefAtomic {
		if t.eng.host == nil {
			t.Sync()
			t.Charge(t.eng.C.Sync.Atomic)
			chargeLine(t, &r.lastProc)
		}
		nv := r.v.Add(-1)
		if nv < 0 {
			panic("sim: RefCount underflow")
		}
		return nv == 0
	}
	lk := r.lock(t)
	lk.Acquire(t)
	if t.eng.host == nil {
		t.Charge(t.eng.C.Sync.RefLockedWork)
		chargeLine(t, &r.lastProc)
	}
	nv := r.v.Add(-1)
	if nv < 0 {
		panic("sim: RefCount underflow")
	}
	lk.Release(t)
	return nv == 0
}

// Value returns the current count.
func (r *RefCount) Value() int32 { return r.v.Load() }

// Sequencer implements the ticketing ("bakery") scheme of Section 4.2:
// a thread takes an up-ticket while still holding the connection state
// lock, releases the lock, and later waits for its ticket to be called at
// the point where the application requires order.
type Sequencer struct {
	next     uint64
	serving  uint64
	lastProc int
	waiters  map[uint64]*Thread
	inited   bool

	// hostMu guards the fields above on the host backend, where the
	// engine no longer serializes callers.
	hostMu sync.Mutex
}

func (s *Sequencer) init() {
	if !s.inited {
		s.waiters = make(map[uint64]*Thread)
		s.lastProc = -1
		s.inited = true
	}
}

// Ticket draws the next ticket (atomic fetch-and-increment).
func (s *Sequencer) Ticket(t *Thread) uint64 {
	if t.eng.host != nil {
		s.hostMu.Lock()
		s.init()
		n := s.next
		s.next++
		s.hostMu.Unlock()
		return n
	}
	t.Sync()
	s.init()
	t.Charge(t.eng.C.Sync.Atomic)
	chargeLine(t, &s.lastProc)
	n := s.next
	s.next++
	return n
}

// Wait blocks until ticket k is being served.
func (s *Sequencer) Wait(t *Thread, k uint64) {
	if t.eng.host != nil {
		s.hostMu.Lock()
		s.init()
		if k <= s.serving {
			s.hostMu.Unlock()
			return
		}
		s.waiters[k] = t
		s.hostMu.Unlock()
		t.Block("sequencer")
		return
	}
	t.Sync()
	s.init()
	chargeLine(t, &s.lastProc)
	if s.serving == k {
		return
	}
	if k < s.serving {
		panic("sim: Sequencer ticket already served")
	}
	s.waiters[k] = t
	t.Block("sequencer")
}

// Done advances service to the next ticket and wakes its waiter, if
// parked.
func (s *Sequencer) Done(t *Thread) {
	if t.eng.host != nil {
		s.hostMu.Lock()
		s.init()
		s.serving++
		w := s.waiters[s.serving]
		delete(s.waiters, s.serving)
		s.hostMu.Unlock()
		if w != nil {
			w.hostWake()
		}
		return
	}
	t.Sync()
	s.init()
	t.Charge(t.eng.C.Sync.Atomic)
	chargeLine(t, &s.lastProc)
	s.serving++
	if w, ok := s.waiters[s.serving]; ok {
		delete(s.waiters, s.serving)
		t.eng.Wake(w, t.Now()+t.eng.C.Sync.Coherence)
	}
}

// Cond is a condition variable tied to a Locker, used for flow-control
// blocking (a TCP sender waiting for window space). Callers hold L
// around Wait/Signal/Broadcast (as condition variables require); on the
// host backend an internal mutex additionally guards the waiter list so
// a wake delivered between release and park is buffered, not lost.
type Cond struct {
	L       Locker
	waiters []*Thread
	hostMu  sync.Mutex
}

// Wait atomically releases the lock and blocks; on wakeup the lock is
// re-acquired before returning. reason appears in deadlock dumps.
// Callers must re-check their predicate in a loop: host-mode wakeups
// can be spurious with respect to the predicate.
func (c *Cond) Wait(t *Thread, reason string) {
	if t.eng.host != nil {
		c.hostMu.Lock()
		c.waiters = append(c.waiters, t)
		c.hostMu.Unlock()
		c.L.Release(t)
		t.Block(reason)
		c.L.Acquire(t)
		return
	}
	c.waiters = append(c.waiters, t)
	c.L.Release(t)
	t.Block(reason)
	c.L.Acquire(t)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(t *Thread) {
	if t.eng.host != nil {
		c.hostMu.Lock()
		ws := c.waiters
		c.waiters = nil
		c.hostMu.Unlock()
		for _, w := range ws {
			w.hostWake()
		}
		return
	}
	if len(c.waiters) == 0 {
		return
	}
	at := t.Now() + t.eng.C.Sync.Coherence
	for _, w := range c.waiters {
		t.eng.Wake(w, at)
	}
	c.waiters = c.waiters[:0]
}

// Signal wakes one waiter (FIFO).
func (c *Cond) Signal(t *Thread) {
	if t.eng.host != nil {
		c.hostMu.Lock()
		var w *Thread
		if len(c.waiters) > 0 {
			w = c.waiters[0]
			c.waiters = c.waiters[1:]
		}
		c.hostMu.Unlock()
		if w != nil {
			w.hostWake()
		}
		return
	}
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	t.eng.Wake(w, t.Now()+t.eng.C.Sync.Coherence)
}

// Counter is a shared cell updated with atomic fetch-and-add (sequence
// number allocation in the drivers, statistics that must be exact).
type Counter struct {
	v        atomic.Int64
	lastProc int
	inited   bool
}

// Add charges one atomic op and returns the *previous* value.
func (c *Counter) Add(t *Thread, delta int64) int64 {
	if t.eng.host == nil {
		t.Sync()
		if !c.inited {
			c.lastProc = -1
			c.inited = true
		}
		t.Charge(t.eng.C.Sync.Atomic)
		chargeLine(t, &c.lastProc)
	}
	return c.v.Add(delta) - delta
}

// Load returns the current value without synchronization cost.
func (c *Counter) Load() int64 { return c.v.Load() }

// Store sets the value (setup/reset paths only).
func (c *Counter) Store(v int64) { c.v.Store(v) }

// Flag is a shared boolean checked with relaxed reads (stop flags).
type Flag struct{ v atomic.Bool }

// Set raises the flag.
func (f *Flag) Set() { f.v.Store(true) }

// Get reads the flag without synchronization cost.
func (f *Flag) Get() bool { return f.v.Load() }
