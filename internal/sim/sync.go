package sim

// Higher-level synchronization objects built on the simulated locks:
// counting (recursive) locks for the map manager, reference counts in
// atomic or lock-based mode, the bakery sequencer used for order
// preservation above TCP, condition variables, shared counters, the
// statistics-counter add and the per-processor shards statistics live
// in.
//
// The rule for the shared cells (Counter, RefCount, CountingLock
// ownership, Queue length) and the statistics counters: each operation
// takes the calling *Thread and tests the substrate once, at the top.
// Host threads really run concurrently, so there the cell moves with
// sync/atomic; the sim engine runs one coroutine at a time with a
// happens-before edge on every switch, so there it is a plain load,
// store or increment. Protocol packages never choose. What has no
// thread stays atomic on both: Flag (set from outside the engine) and
// the snapshot readers (Value, Load, Len, the Stats methods), whose
// atomic loads cost nothing extra.
//
// Protocol-wide statistics are sharded (Shards): each processor bumps
// its own line-padded slot and a snapshot sums them, so on the host
// no counter line crosses processors per packet. The shard decides
// only which line is written; Count stays atomic on the host, so a
// count is exact whether or not threads and slots pair one to one. On
// the sim the adds are plain and the sums are what one shared counter
// held.
//
// History: the cells were atomics on both substrates until the fences
// showed in profiles — an atomic store is an XCHG and an atomic add a
// LOCK XADD, and on the single-processor UDP receive workload of bench/
// (udp-recv-1p-1k) CountingLock's owner stores were 13 % of host CPU
// and RefCount's Int32.Add 6 %. Rand.Jitter's float arithmetic, another
// 9 %, stays because the integer form does not pay: with frac
// pre-scaled by 2^33 and one bits.Mul64 it kept every golden and
// catalogue digest (it differs from the float form on 3 draws in 10^7),
// yet read slower on udp-recv-1p-1k in 5 of 6 alternating pairs, and
// deleting the jitter arithmetic outright saves at most ~9 % of CPU
// there. Virtual-time charging (Sync, Charge, chargeLine) is sim-only
// and skipped on the host backend.

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// CountingLock is the recursive lock the x-kernel map manager needs:
// mapForEach can call back into map operations on the same thread, so if
// the owner re-acquires, a count is incremented instead of deadlocking
// (Section 2.1).
type CountingLock struct {
	inner Locker
	// owner is the holding thread on the sim backend, hostOwner on the
	// host backend, where a thread that does not hold the lock reads it
	// while the holder writes it.
	owner     *Thread
	hostOwner atomic.Pointer[Thread]
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
	if t.eng.host != nil {
		if c.hostOwner.Load() == t {
			c.depth++
			return
		}
		c.inner.Acquire(t)
		c.hostOwner.Store(t)
		c.depth = 1
		return
	}
	if c.owner == t {
		c.depth++
		return
	}
	c.inner.Acquire(t)
	c.owner = t
	c.depth = 1
}

// Release decrements the count, releasing the lock at zero.
func (c *CountingLock) Release(t *Thread) {
	if t.eng.host != nil {
		if c.hostOwner.Load() != t {
			panic("sim: CountingLock.Release by non-owner")
		}
		c.depth--
		if c.depth == 0 {
			c.hostOwner.Store(nil)
			c.inner.Release(t)
		}
		return
	}
	if c.owner != t {
		panic("sim: CountingLock.Release by non-owner")
	}
	c.depth--
	if c.depth == 0 {
		c.owner = nil
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

var refNames = []string{RefAtomic: "atomic", RefLocked: "locked"}

func (m RefMode) String() string { return EnumName(refNames, m) }

// Set parses a reference-count mode name (flag.Value).
func (m *RefMode) Set(s string) error { return SetEnum(m, "refcount mode", s, refNames) }

// RefCount is a reference count on a shared object (MNodes, sessions,
// protocol state). In RefAtomic mode a manipulation charges a single
// LL/SC atomic op; in RefLocked mode it is a lock-increment-unlock
// sequence through the engine's finite pool of static global locks,
// paying the procedure-call and memory-write overhead the paper's
// Section 5.2 eliminates. Both modes pay coherence when the count
// bounces between processors.
type RefCount struct {
	v int32
	// pool is 1 + the index of this count's lock in Engine.refPool, 0
	// until the first RefLocked manipulation assigns one.
	pool     int32
	lastProc int32
	// mode is the RefMode in one byte, which makes the count 16 bytes:
	// there is one in every session, TCB and MNode.
	mode uint8
}

// Init sets the mode and initial value. The caller owns the object: it
// is not yet (or, for a recycled one, no longer) visible to any other
// thread, so the stores are plain on either substrate.
func (r *RefCount) Init(mode RefMode, v int32) {
	*r = RefCount{mode: uint8(mode), v: v, lastProc: -1}
}

// nextRefLock assigns the next static pool lock round-robin,
// deterministically per engine, as 1 + its index.
func (e *Engine) nextRefLock() int32 {
	i := e.refSeq % len(e.refPool)
	e.refSeq++
	return int32(i) + 1
}

// hostLock resolves this count's static pool lock on the host backend,
// assigning it on first use.
func (r *RefCount) hostLock(e *Engine) *Mutex {
	i := atomic.LoadInt32(&r.pool)
	if i == 0 {
		e.host.mu.Lock()
		if i = atomic.LoadInt32(&r.pool); i == 0 {
			i = e.nextRefLock()
			atomic.StoreInt32(&r.pool, i)
		}
		e.host.mu.Unlock()
	}
	return &e.refPool[i-1]
}

// add moves the count by d and returns the new value.
func (r *RefCount) add(t *Thread, d int32) int32 {
	e := t.eng
	if e.host != nil {
		if RefMode(r.mode) == RefAtomic {
			return atomic.AddInt32(&r.v, d)
		}
		lk := r.hostLock(e)
		lk.Acquire(t)
		nv := atomic.AddInt32(&r.v, d)
		lk.Release(t)
		return nv
	}
	if RefMode(r.mode) == RefAtomic {
		t.Sync()
		t.Charge(e.C.Sync.Atomic)
		chargeLine(t, &r.lastProc)
		r.v += d
		return r.v
	}
	if r.pool == 0 {
		r.pool = e.nextRefLock()
	}
	lk := &e.refPool[r.pool-1]
	lk.Acquire(t)
	t.Charge(e.C.Sync.RefLockedWork)
	chargeLine(t, &r.lastProc)
	r.v += d
	nv := r.v
	lk.Release(t)
	return nv
}

// Incr atomically increments the count.
func (r *RefCount) Incr(t *Thread) { r.add(t, 1) }

// Share adds a reference for a protocol whose open table hands the
// object out again. Like Init it is the owner's store, made under the
// lock that serializes that protocol's opens, and charges nothing; but
// other threads can see the object, so on the host backend it is atomic.
func (r *RefCount) Share(t *Thread) {
	if t.eng.host != nil {
		atomic.AddInt32(&r.v, 1)
		return
	}
	r.v++
}

// Decr atomically decrements the count and reports whether it reached
// zero (the caller then frees the object).
func (r *RefCount) Decr(t *Thread) bool {
	nv := r.add(t, -1)
	if nv < 0 {
		panic("sim: RefCount underflow")
	}
	return nv == 0
}

// Value returns the current count.
func (r *RefCount) Value() int32 { return atomic.LoadInt32(&r.v) }

// Sequencer implements the ticketing ("bakery") scheme of Section 4.2:
// a thread takes an up-ticket while still holding the connection state
// lock, releases the lock, and later waits for its ticket to be called at
// the point where the application requires order.
type Sequencer struct {
	next     uint64
	serving  uint64
	lastProc int32
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
func (c *Cond) Wait(t *Thread, reason string) { c.wait(t, reason, "") }

// wait is Wait with the reason in two parts, as Thread.blockOn takes
// it, so a caller with a named object formats nothing per wait.
func (c *Cond) wait(t *Thread, kind, name string) {
	if t.eng.host != nil {
		c.hostMu.Lock()
		c.waiters = append(c.waiters, t)
		c.hostMu.Unlock()
	} else {
		c.waiters = append(c.waiters, t)
	}
	c.L.Release(t)
	t.blockOn(kind, name)
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
			c.waiters = slices.Delete(c.waiters, 0, 1)
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
	c.waiters = slices.Delete(c.waiters, 0, 1) // copies down: the list keeps its backing array
	t.eng.Wake(w, t.Now()+t.eng.C.Sync.Coherence)
}

// Counter is a shared cell updated with atomic fetch-and-add (sequence
// number allocation in the drivers, statistics that must be exact).
type Counter struct {
	v        int64
	lastProc int32
	inited   bool
}

// Add charges one atomic op and returns the *previous* value.
func (c *Counter) Add(t *Thread, delta int64) int64 {
	if t.eng.host != nil {
		return atomic.AddInt64(&c.v, delta) - delta
	}
	t.Sync()
	if !c.inited {
		c.lastProc = -1
		c.inited = true
	}
	t.Charge(t.eng.C.Sync.Atomic)
	chargeLine(t, &c.lastProc)
	old := c.v
	c.v = old + delta
	return old
}

// Load returns the current value without synchronization cost.
func (c *Counter) Load() int64 { return atomic.LoadInt64(&c.v) }

// Store sets the value (setup/reset paths only).
func (c *Counter) Store(v int64) { atomic.StoreInt64(&c.v, v) }

// Count adds delta to a statistics counter: a plain int64 that any
// thread may bump and that is read only as a snapshot, with
// atomic.LoadInt64 (mid-run on the host backend, after the run on the
// sim). It charges no virtual time and implies no ordering. Every
// add-only statistic in the protocol packages goes through here, so the
// choice between a plain increment and a LOCK XADD is made in this
// package alone. A protocol-wide statistic lives in a Shards, and the
// counter passed here is the caller's own slot's: the shard decides
// which cache line the add dirties, the atomic keeps it exact however
// threads map to slots.
func (t *Thread) Count(c *int64, delta int64) {
	if t.eng.host != nil {
		atomic.AddInt64(c, delta)
		return
	}
	*c += delta
}

// shardSlots is the slot count of every Shards: a power of two, so a
// slot is a mask away, and above the threads of the paper's largest
// machine (8 pumps, core's control and event threads), so each has one.
const shardSlots = 16

// cacheLine is the coherence unit that separates Shards slots.
const cacheLine = 64

// Shards holds one T per processor slot, each on cache lines of its own:
// the add-only statistics every processor bumps for every packet. A
// thread bumps fields of its own slot (At) with Count; a snapshot sums
// the slots (Sum). T must be a struct of int64 counters. The zero value
// is ready to use.
//
// The slots are stored inline, so wherever the allocator places the
// enclosing struct a line of padding follows every slot and precedes
// the first: no two slots, and no slot and a neighbouring field, share
// a line.
//
// Processors share a slot when they are equal modulo shardSlots. That
// costs a shared line, never a count: Count is atomic on the host.
type Shards[T any] struct {
	_     [cacheLine]byte
	slots [shardSlots]struct {
		v T
		_ [cacheLine]byte
	}
}

// At returns the calling thread's slot.
func (s *Shards[T]) At(t *Thread) *T {
	return &s.slots[t.Proc&(shardSlots-1)].v
}

// Sum adds up the slots field by field, with atomic loads: host threads
// bump them while a snapshot reads. It is coherent per field, not
// across fields.
func (s *Shards[T]) Sum() T {
	var sum T
	n := counterWords[T]()
	out := unsafe.Slice((*int64)(unsafe.Pointer(&sum)), n)
	for i := range s.slots {
		slot := unsafe.Slice((*int64)(unsafe.Pointer(&s.slots[i].v)), n)
		for w := range out {
			out[w] += atomic.LoadInt64(&slot[w])
		}
	}
	return sum
}

// counterWords returns the number of int64 words in T, and panics
// unless T is a struct of int64 fields, the only shape Sum can add word
// by word.
func counterWords[T any]() int {
	rt := reflect.TypeFor[T]()
	if rt.Kind() != reflect.Struct {
		panic("sim: Shards of " + rt.String() + ": not a struct of int64 counters")
	}
	for i := range rt.NumField() {
		if f := rt.Field(i); f.Type.Kind() != reflect.Int64 {
			panic("sim: Shards of " + rt.String() + ": field " + f.Name + " is not an int64 counter")
		}
	}
	return int(rt.Size() / 8)
}

// Flag is a shared boolean checked with relaxed reads (stop flags).
type Flag struct{ v atomic.Bool }

// Set raises the flag.
func (f *Flag) Set() { f.v.Store(true) }

// Get reads the flag without synchronization cost.
func (f *Flag) Get() bool { return f.v.Load() }
