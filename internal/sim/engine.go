// Package sim implements a deterministic discrete-event simulation of a
// shared-memory multiprocessor, the substrate on which the parallelized
// protocol stacks of this repository execute.
//
// The model: P virtual processors each run one protocol thread (the paper
// wires one IRIX thread per CPU). Threads are coroutines (iter.Pull):
// the RunUntil driver resumes exactly one at a time — always the
// runnable thread with the smallest virtual clock — with a direct
// goroutine switch that never enters the Go scheduler, so execution is
// sequential, race-free and reproducible, and costs the same at any
// GOMAXPROCS. Protocol code is real; only time is virtual: threads
// charge virtual nanoseconds from the cost model (internal/cost) as they
// work, and synchronize through simulated locks whose contention,
// backoff-probe timing and cache-coherence penalties are modeled
// explicitly (see lock.go).
//
// Rules for code running on the engine:
//
//   - Pure computation on thread-owned data (messages, headers) needs no
//     engine interaction; charge its cost with Thread.Charge.
//   - Any touch of shared simulation state (protocol control blocks, maps,
//     free lists, counters) must happen either under a simulated lock or
//     immediately after Thread.Sync, which parks the thread until it holds
//     the minimum virtual time. Because the engine serializes execution,
//     such accesses are free of data races in the Go sense; Sync ordering
//     makes them correct in virtual time as well.
//   - Statistics counters and the shared cells (Counter, RefCount,
//     CountingLock, Queue) take the calling *Thread and pick plain
//     memory (sim: the engine already serializes) or sync/atomic (host)
//     inside this package; protocol packages never choose. Counters are
//     bumped with Thread.Count and read with atomic loads (sync.go).
//
// The engine is a dual-mode execution substrate. NewBackend with
// BackendHost builds an engine whose threads are real goroutines, whose
// locks delegate to sync-based implementations with wall-clock wait and
// hold accounting, and whose Now() reads the host monotonic clock — the
// same *Thread handle and Locker interfaces, so protocol code compiles
// unchanged against either backend. See host.go for the rules.
package sim

import (
	"fmt"
	"iter"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// threadState tracks where a thread is in its lifecycle.
type threadState int32

const (
	stateNew threadState = iota
	stateReady
	stateRunning
	stateBlocked
	stateDone
)

func (s threadState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "invalid"
}

// Thread is one simulated thread of control, bound to a virtual
// processor. It doubles as the per-processor context that the x-kernel
// passes implicitly: per-processor resource caches and map-manager
// counting locks key off Thread.Proc.
//
// Thread structs (and their coroutines) are pooled by the engine: when a
// thread's body returns, the struct parks on a free list with its
// coroutine suspended, and the next Spawn reuses both instead of
// allocating a new coroutine and stack.
type Thread struct {
	eng  *Engine
	name string

	// ID is a unique small integer, assigned at spawn.
	ID int
	// Proc is the virtual processor this thread currently runs on.
	// With wired threads (the paper's configuration) it never changes.
	Proc int

	vt      int64 // local virtual clock, ns
	pushSeq int64 // FIFO tiebreak among equal clocks
	state   threadState

	// next resumes the thread's coroutine from the RunUntil driver and
	// returns when the thread switches back; stop ends the coroutine
	// (Drain, pool release); park, valid inside the coroutine, switches
	// back to the driver and reports false when the coroutine was
	// stopped rather than resumed. All three are nil on the host backend.
	next func() (struct{}, bool)
	stop func()
	park func(struct{}) bool

	// resume is the host backend's Block/Wake channel (capacity 1); nil
	// in sim mode.
	resume chan struct{}

	// fn is the thread body for the current (or next) life of this
	// struct's coroutine; nil while parked on the free list.
	fn func(*Thread)

	rng Rand

	// wait is the thread's record on the lock it is blocked on. It lives
	// here rather than in a per-wait allocation because a thread waits
	// on at most one lock at a time.
	wait lockWait

	// blockKind and blockName say what the thread is blocked on, for
	// deadlock dumps; kept apart so a contended acquire formats nothing.
	blockKind, blockName string
}

// drainSignal unwinds a parked thread's stack during Engine.Drain. It
// is recovered by Engine.call and never escapes to user code.
type drainSignal struct{}

// Engine is the discrete-event scheduler.
//
// Every thread is an iter.Pull coroutine and RunUntil is the driver
// loop. Whoever gives up control (a yielding thread, a finishing
// thread, or the driver itself) makes the scheduling decision in step,
// which leaves the chosen thread in pending; a thread then switches
// back to the driver, and the driver switches into pending. Both
// switches are coroswitch — a direct goroutine-to-goroutine transfer
// that bypasses the Go scheduler — and there is none at all when the
// yielding thread is still the minimum and simply keeps running. The
// engine's state stays serialized: exactly one goroutine runs at any
// moment, and iter.Pull orders each switch as a happens-before edge.
type Engine struct {
	C *cost.Model

	heap    []*Thread
	pushCtr int64
	now     int64
	live    int
	cur     *Thread
	nextID  int
	rng     Rand
	started bool

	// limit is the active RunUntil bound (-1 when unbounded).
	limit int64
	// pending is the thread step chose for the driver to resume next;
	// nil ends the driver loop (all threads done, limit reached,
	// deadlock, or a thread panic).
	pending *Thread
	// stopPanic carries a deadlock dump or thread panic to the driver.
	stopPanic any
	// threads registers every Thread struct ever spawned (live, parked
	// and pooled); Drain walks it to release parked coroutines.
	threads []*Thread
	// free is the pool of done threads whose coroutines are suspended
	// awaiting another Spawn.
	free []*Thread
	// draining makes every thread that tries to park unwind via
	// drainSignal instead.
	draining bool

	// Trace, when non-nil, receives one line per scheduling decision;
	// used by tests.
	Trace func(string)

	// Rec, when non-nil, is the packet flight recorder. Instrumented
	// code reaches it via Thread.Engine().Rec; every recording method
	// is nil-safe, but a call whose arguments read the clock (t.Now(),
	// a wall-clock read on the host backend) sits under
	// `if rec := t.Engine().Rec; rec != nil`, so the disabled path is a
	// single pointer test and no clock read. Recording never charges
	// virtual time or draws from a thread's RNG: measurements are
	// bit-identical with tracing on or off.
	Rec *trace.Recorder

	// Tel, when non-nil, is the virtual-time telemetry sampler
	// (internal/telemetry). step ticks it as the clock advances so
	// samples land on exact period boundaries, and the locks publish
	// wait/hold/acquire counters through it. Like Rec, every method is
	// nil-safe and sampling never charges virtual time, draws RNG or
	// spawns threads: runs are bit-identical with sampling on or off.
	Tel *telemetry.Sampler

	// refPool is the finite set of static global locks used for
	// lock-based reference-count manipulation (RefLocked mode); the
	// x-kernel/SICS systems used such a pool rather than a lock per
	// object (Section 2.1).
	refPool [2]Mutex
	refSeq  int

	// host is non-nil when the engine runs on the host backend
	// (BackendHost): real goroutines, sync-based locks, monotonic
	// clock. All the scheduling state above is then unused.
	host *hostEngine
}

// New creates a simulation-backend engine with the given cost model and
// seed.
func New(model *cost.Model, seed uint64) *Engine {
	return NewBackend(model, seed, BackendSim)
}

// NewBackend creates an engine on the chosen execution substrate. The
// cost model is only consulted in sim mode but must still be valid (it
// defaults if nil); the seed feeds per-thread RNGs in both modes.
func NewBackend(model *cost.Model, seed uint64, backend Backend) *Engine {
	if model == nil {
		model = cost.NewModel(cost.Challenge100)
	}
	e := &Engine{
		C:     model,
		limit: -1,
		rng:   NewRand(seed),
	}
	if backend == BackendHost {
		e.host = &hostEngine{epoch: time.Now()}
	}
	return e
}

// Now returns the engine's current virtual time — or, on the host
// backend, monotonic wall-clock ns since the engine was created.
func (e *Engine) Now() int64 {
	if h := e.host; h != nil {
		return h.now()
	}
	return e.now
}

// Spawn creates a thread bound to processor proc and schedules it at the
// current virtual time. It may be called before Run or from a running
// thread. Thread structs and their coroutines are reused from the
// engine's pool when available.
func (e *Engine) Spawn(name string, proc int, fn func(*Thread)) *Thread {
	if h := e.host; h != nil {
		t := &Thread{
			eng:    e,
			name:   name,
			Proc:   proc,
			state:  stateRunning,
			resume: make(chan struct{}, 1),
			fn:     fn,
		}
		h.mu.Lock()
		t.ID = e.nextID
		e.nextID++
		t.rng = NewRand(e.rng.Uint64())
		h.mu.Unlock()
		h.wg.Add(1)
		go h.run(t)
		return t
	}
	var t *Thread
	if n := len(e.free); n > 0 {
		t = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		t.name = name
		t.Proc = proc
		t.vt = e.now
		t.state = stateNew
		t.ID = e.nextID
		t.rng = NewRand(e.rng.Uint64())
		t.fn = fn
	} else {
		t = &Thread{
			eng:   e,
			name:  name,
			ID:    e.nextID,
			Proc:  proc,
			vt:    e.now,
			state: stateNew,
			rng:   NewRand(e.rng.Uint64()),
			fn:    fn,
		}
		t.next, t.stop = iter.Pull(t.lives)
		e.threads = append(e.threads, t)
	}
	e.nextID++
	e.live++
	e.push(t)
	return t
}

// lives is the coroutine behind a Thread struct. Each iteration is one
// thread lifetime: run the body, retire to the pool, hand the schedule
// onward, and park until the next Spawn's first resume. It returns —
// ending the coroutine — when stopped: from inside a body by Drain
// (which then does the bookkeeping), or from the pool.
func (t *Thread) lives(park func(struct{}) bool) {
	e := t.eng
	t.park = park
	for {
		if e.call(t) {
			return
		}
		e.retire(t)
		// Choose the next runnable thread, or leave pending nil so the
		// driver stops: a panic to re-raise, or every thread done.
		if e.stopPanic == nil && e.live > 0 {
			e.step(nil)
		}
		if !park(struct{}{}) {
			return
		}
	}
}

// call runs the thread body, capturing panics. A drainSignal panic
// (from Drain unwinding the stack) is absorbed and reported as drained;
// any other is left in stopPanic for the driver — or for Drain, when a
// deferred function raised it mid-unwind — to re-raise on its caller's
// goroutine, so library users (and tests) can recover it.
func (e *Engine) call(t *Thread) (drained bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(drainSignal); ok {
				drained = true
			} else {
				e.stopPanic = r
				drained = e.draining
			}
		}
	}()
	t.fn(t)
	return false
}

// retire marks t done and parks its struct on the free list for reuse.
func (e *Engine) retire(t *Thread) {
	t.state = stateDone
	t.fn = nil
	e.live--
	e.free = append(e.free, t)
}

// step makes the scheduling decision for whoever gives up control and
// leaves the chosen thread in pending for the driver to resume. self,
// when non-nil, is a yielding thread that stays runnable and is already
// known not to run next (yield's compare ruled that out): it re-enters
// the heap behind every thread at its clock. When the simulation cannot
// proceed (limit reached, deadlock), pending stays nil, which stops the
// driver once the caller has parked.
//
// The limit is judged on the root before anything is popped: a thread
// that has to wait for the next RunUntil keeps its place among its
// equal-clock peers.
func (e *Engine) step(self *Thread) {
	if len(e.heap) == 0 || e.pastLimit(e.heap[0].vt) {
		if self != nil {
			e.push(self)
		} else if len(e.heap) == 0 {
			e.stopPanic = "sim: deadlock — all threads blocked\n" + e.dump()
		}
		return
	}
	next := e.heap[0]
	if self != nil {
		// The root leaves and self enters: one sift-down, not a
		// push-then-pop.
		e.stamp(self)
		e.heap[0] = self
		e.down()
	} else {
		e.pop()
	}
	e.dispatch(next)
	e.pending = next
}

// pastLimit reports whether a thread at clock vt has to wait for a later
// RunUntil: the limit is inclusive.
func (e *Engine) pastLimit(vt int64) bool {
	return e.limit >= 0 && vt > e.limit
}

// dispatch makes next the running thread: the engine clock advances to
// its clock, telemetry samples any period boundary that passes, and
// Trace logs the decision.
func (e *Engine) dispatch(next *Thread) {
	if next.vt > e.now {
		e.now = next.vt
	} else {
		// A thread woken "in the past" (e.g. granted a lock released at
		// an earlier point than the clock has reached) resumes now.
		next.vt = e.now
	}
	e.Tel.Tick(e.now)
	next.state = stateRunning
	e.cur = next
	if e.Trace != nil {
		e.Trace(fmt.Sprintf("t=%d run %s", e.now, next.name))
	}
}

// Run drives the simulation until every thread has terminated. It panics
// with a state dump if all remaining threads are blocked (deadlock).
func (e *Engine) Run() {
	e.RunUntil(-1)
}

// RunUntil drives the simulation until all threads terminate or the
// virtual clock would pass limit (limit < 0 means no limit). It returns
// the number of live threads remaining.
//
// When it returns non-zero, the remaining threads stay parked in their
// coroutines; resume them with another RunUntil, or release them with
// Drain. When it returns zero the thread pool is released, so a
// completed engine holds no goroutines.
//
// A panic in a thread body is re-raised here, on the caller's
// goroutine, and leaves the engine drainable.
func (e *Engine) RunUntil(limit int64) int {
	if h := e.host; h != nil {
		if limit >= 0 {
			panic("sim: RunUntil with a virtual-time limit is sim-only")
		}
		h.wg.Wait()
		return 0
	}
	if e.started {
		panic("sim: Run called reentrantly")
	}
	e.started = true
	defer func() { e.started = false }()

	e.limit = limit
	if e.live > 0 {
		e.step(nil)
		for t := e.pending; t != nil; t = e.pending {
			e.pending = nil
			t.next()
		}
		if p := e.stopPanic; p != nil {
			e.stopPanic = nil
			panic(p)
		}
	}
	if e.live == 0 {
		e.releasePool()
		return 0
	}
	return e.live
}

// Drain releases every thread still parked in the engine — the threads
// a limit-truncated RunUntil left behind — by stopping their
// coroutines: a thread parked inside its body unwinds its stack
// (deferred functions run; one that tries to park again keeps
// unwinding), a thread that never started has nothing to unwind. It
// then releases the pooled coroutines. After Drain the engine holds no
// goroutines; it remains usable (new Spawns start fresh coroutines).
// A panic raised by a deferred function during the unwinding is
// re-raised once everything is released. Drain must not be called while
// Run is in progress, nor from a simulated thread.
func (e *Engine) Drain() {
	if e.host != nil {
		panic("sim: Drain is sim-only")
	}
	if e.started {
		panic("sim: Drain called during Run")
	}
	e.draining = true
	for _, t := range e.threads {
		if t.state == stateDone {
			continue
		}
		t.end()
		t.state = stateDone
		t.fn = nil
		e.live--
	}
	e.draining = false
	e.heap = e.heap[:0]
	e.cur = nil
	e.releasePool()
	if p := e.stopPanic; p != nil {
		e.stopPanic = nil
		panic(p)
	}
}

// releasePool ends the coroutines of all pooled done threads. Their
// structs stay registered; a later Spawn starts new coroutines.
func (e *Engine) releasePool() {
	for i, t := range e.free {
		t.end()
		e.free[i] = nil
	}
	e.free = e.free[:0]
}

// end stops the thread's coroutine and drops the struct's references to
// it: the struct stays registered but is never resumed again.
func (t *Thread) end() {
	t.stop()
	t.next, t.stop, t.park = nil, nil, nil
}

// Wake marks a blocked thread runnable no earlier than virtual time at.
// It must be called from a running thread (or the event path of one);
// the engine's serialization makes it safe.
func (e *Engine) Wake(t *Thread, at int64) {
	if e.host != nil {
		// Grant/wake times are virtual-time modeling artifacts; on the
		// host the waiter simply becomes runnable now.
		t.hostWake()
		return
	}
	if t.state != stateBlocked {
		panic("sim: Wake of " + t.name + " in state " + t.state.String())
	}
	if at > t.vt {
		t.vt = at
	}
	e.push(t)
}

// stamp marks t ready and gives it the next place among equal clocks.
func (e *Engine) stamp(t *Thread) {
	t.state = stateReady
	e.pushCtr++
	t.pushSeq = e.pushCtr
}

// push marks t ready and inserts it into the scheduler heap.
func (e *Engine) push(t *Thread) {
	e.stamp(t)
	e.heap = append(e.heap, t)
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !threadLess(e.heap[i], e.heap[p]) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

// pop removes the root of a non-empty heap.
func (e *Engine) pop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap[n] = nil
	e.heap = e.heap[:n]
	e.down()
}

// down restores heap order after the root was replaced.
func (e *Engine) down() {
	n := len(e.heap)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && threadLess(e.heap[l], e.heap[m]) {
			m = l
		}
		if r < n && threadLess(e.heap[r], e.heap[m]) {
			m = r
		}
		if m == i {
			break
		}
		e.heap[i], e.heap[m] = e.heap[m], e.heap[i]
		i = m
	}
}

func threadLess(a, b *Thread) bool {
	if a.vt != b.vt {
		return a.vt < b.vt
	}
	return a.pushSeq < b.pushSeq
}

func (e *Engine) dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "virtual time %d ns, %d live threads\n", e.now, e.live)
	var lines []string
	for _, t := range e.threads {
		if t.state == stateDone {
			continue
		}
		reason := t.blockKind
		if t.blockName != "" {
			reason += " " + t.blockName
		}
		lines = append(lines, fmt.Sprintf("  %-24s proc=%d vt=%d state=%s reason=%s",
			t.name, t.Proc, t.vt, t.state, reason))
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	return b.String()
}

// ---- Thread operations ----

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Engine returns the owning engine.
func (t *Thread) Engine() *Engine { return t.eng }

// Rand returns the thread's private PRNG.
func (t *Thread) Rand() *Rand { return &t.rng }

// Now returns the thread's local virtual clock. Between Syncs it may run
// ahead of Engine.Now. On the host backend it is the monotonic clock.
func (t *Thread) Now() int64 {
	if h := t.eng.host; h != nil {
		return h.now()
	}
	return t.vt
}

// Charge advances the thread's virtual clock by ns of work. On the host
// backend time is not modeled — it elapses — so Charge is a no-op.
func (t *Thread) Charge(ns int64) {
	if t.eng.host != nil {
		return
	}
	if ns > 0 {
		t.vt += ns
	}
}

// ChargeRand charges ns with the model's jitter applied.
func (t *Thread) ChargeRand(ns int64) {
	if t.eng.host != nil {
		return
	}
	t.Charge(t.rng.Jitter(ns, t.eng.C.JitterFrac))
}

// ChargeBytes charges per-byte work at rate ns/byte.
func (t *Thread) ChargeBytes(rate float64, n int) {
	t.Charge(cost.Bytes(rate, n))
}

// yield gives up control, with one of three outcomes. A thread that
// stays runnable (s == stateReady) and whose clock is strictly below
// every other runnable thread's, within the RunUntil limit, keeps
// running: the engine does for it what a scheduling decision would —
// clock, telemetry, Trace — and the heap is not touched. An equal clock
// does not qualify: the thread that yielded first runs first. A runnable
// thread that is not the minimum takes the root's place in the heap and
// parks while the driver resumes the root. A blocking thread leaves the
// schedule and parks until a Wake pushes it back.
func (t *Thread) yield(s threadState) {
	e := t.eng
	if e.draining {
		// Drain is unwinding this stack; a deferred function tried to
		// park again (lock handoff, Sync in a cleanup path). Keep
		// unwinding.
		panic(drainSignal{})
	}
	if s == stateReady {
		if (len(e.heap) == 0 || t.vt < e.heap[0].vt) && !e.pastLimit(t.vt) {
			e.dispatch(t)
			return
		}
		e.step(t)
	} else {
		t.state = s
		e.step(nil)
	}
	if !t.park(struct{}{}) {
		panic(drainSignal{}) // stopped by Drain: unwind this stack
	}
}

// Sync parks the thread until it holds the minimum virtual time among
// runnable threads. On return it is safe to operate on shared simulation
// state: all events before this thread's clock have already executed.
// On the host backend there is no serialization to wait for: shared
// state must be protected by locks or atomics, and Sync is a no-op.
func (t *Thread) Sync() {
	if t.eng.host != nil {
		return
	}
	t.yield(stateReady)
}

// Block parks the thread until another thread calls Engine.Wake on it.
// reason appears in deadlock dumps.
func (t *Thread) Block(reason string) {
	t.blockOn(reason, "")
}

// blockOn is Block with the reason in two parts — what kind of object
// the thread waits on and that object's name — joined only if a
// deadlock dump prints them.
func (t *Thread) blockOn(kind, name string) {
	t.blockKind, t.blockName = kind, name
	if t.eng.host != nil {
		<-t.resume
	} else {
		t.yield(stateBlocked)
	}
	t.blockKind, t.blockName = "", ""
}

// Sleep advances the clock by d and parks until the engine catches up.
// On the host backend it sleeps for d real nanoseconds.
func (t *Thread) Sleep(d int64) {
	if t.eng.host != nil {
		if d > 0 {
			time.Sleep(time.Duration(d))
		}
		return
	}
	t.Charge(d)
	t.Sync()
}

// SleepUntil parks the thread until virtual time at (no-op if already
// past). On the host backend, at is a monotonic-clock deadline.
func (t *Thread) SleepUntil(at int64) {
	if h := t.eng.host; h != nil {
		if d := at - h.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		return
	}
	if at > t.vt {
		t.vt = at
	}
	t.Sync()
}

// Yield models an explicit processor yield (sched_yield): the send-side
// test threads yield after every packet, as described in Section 3. On
// the host backend it is a real scheduler yield.
func (t *Thread) Yield() {
	if t.eng.host != nil {
		runtime.Gosched()
		return
	}
	t.Charge(t.eng.C.Stack.Yield)
	t.Sync()
}

// Interfere charges the occasional large delay a thread suffers from
// cache/TLB interference or stray OS activity: with probability
// Model.InterfereProb it loses uniform(0, Model.InterfereMax) virtual ns.
// Drivers invoke it while a packet is carried up the stack; the ordered
// application invokes it between the transport and the ticket wait.
func (t *Thread) Interfere() {
	if t.eng.host != nil {
		return // real interference happens on its own
	}
	m := t.eng.C
	if m.InterfereProb > 0 && t.rng.Float64() < m.InterfereProb {
		t.Charge(int64(t.rng.Uint64() % uint64(m.InterfereMax)))
	}
}

// MigrateTo moves an unwired thread to another processor, paying the
// cache-affinity penalty.
func (t *Thread) MigrateTo(proc int) {
	if proc == t.Proc {
		return
	}
	t.Proc = proc
	// A no-op on the host backend: affinity penalties are the host
	// scheduler's business.
	t.ChargeRand(t.eng.C.Stack.Migrate)
}
