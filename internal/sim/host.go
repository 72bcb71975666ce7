package sim

// Host backend: the same Engine/Thread/Locker API executed on real
// goroutines, real atomics and the host monotonic clock instead of the
// virtual-time discrete-event scheduler. This is the substrate the
// shared cells and statistics counters keep their sync/atomic
// operations for: each takes the thread and picks plain or atomic
// inside this package (sync.go), never in a protocol package.
//
// In host mode:
//
//   - Spawn starts one goroutine per thread. With pinning enabled
//     (SetHostPinning) the goroutine locks its OS thread and asks the
//     kernel to bind it to the CPU matching its logical proc
//     (best-effort; failures are ignored).
//   - Now() reads the host monotonic clock (ns since engine creation).
//   - Charge/ChargeRand/ChargeBytes/Sync/Interfere are no-ops: time is
//     not modeled, it elapses.
//   - The lock kinds keep their structural identities — Mutex is an
//     unfair compare-and-swap spin lock, MCSLock a FIFO queue lock with
//     direct handoff, TicketLock an atomic ticket/serving pair — and
//     feed the same LockStats fields in wall-clock ns: wait exact, hold
//     sampled 1/32 at weight 32 (timedHold), so the 31 untimed holds in
//     32 read no clock inside the critical section they are timing.
//   - Run waits for every spawned goroutine to return. There is no
//     deadlock detector and no virtual-time limit; RunUntil with a
//     bound, and Drain, are simulation-only.
//
// Host runs are nondeterministic by nature. Determinism guards
// (byte-identical goldens, virtual-time telemetry, the flight recorder)
// apply only to sim mode; core.Build rejects the config knobs that
// require them.

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Backend selects the execution substrate an Engine runs on.
type Backend int

const (
	// BackendSim is the deterministic virtual-time discrete-event
	// scheduler (the default; the paper's methodology).
	BackendSim Backend = iota
	// BackendHost runs threads as real goroutines with sync-based lock
	// implementations and the host monotonic clock.
	BackendHost
)

var backendNames = []string{BackendSim: "sim", BackendHost: "host"}

func (b Backend) String() string { return EnumName(backendNames, b) }

// Set parses a backend name (flag.Value).
func (b *Backend) Set(s string) error { return SetEnum(b, "backend", s, backendNames) }

// hostEngine is the per-engine state of the host backend.
type hostEngine struct {
	epoch time.Time
	wg    sync.WaitGroup
	// mu guards spawn bookkeeping (thread IDs, the spawn RNG stream,
	// the static refcount lock pool assignment).
	mu sync.Mutex
	// pinMax: spawned threads with Proc < pinMax are pinned to their
	// logical CPU (0 disables pinning).
	pinMax int
}

func (h *hostEngine) now() int64 { return time.Since(h.epoch).Nanoseconds() }

// IsHost reports whether the engine runs on the host backend.
func (e *Engine) IsHost() bool { return e.host != nil }

// SetHostPinning asks the host backend to pin threads spawned on procs
// 0..nprocs-1 to the matching host CPU (modulo the CPU count),
// best-effort. No-op in sim mode.
func (e *Engine) SetHostPinning(nprocs int) {
	if e.host != nil {
		e.host.pinMax = nprocs
	}
}

// hostRun is the goroutine body behind a host-mode Thread. A panic in a
// host thread propagates and crashes the process with the real stack:
// with real concurrency there is no single driver to re-raise on, and a
// loud crash beats a hung WaitGroup.
func (h *hostEngine) run(t *Thread) {
	defer h.wg.Done()
	if t.Proc >= 0 && t.Proc < h.pinMax {
		runtime.LockOSThread()
		pinToCPU(t.Proc)
	}
	t.fn(t)
}

// hostWake makes a host-mode thread blocked in Thread.Block runnable.
// The resume channel has capacity 1, so a wake delivered between a
// waiter's registration and its Block is buffered, not lost.
func (t *Thread) hostWake() {
	select {
	case t.resume <- struct{}{}:
	default:
	}
}

// hostSpin backs off progressively inside host spin loops: brief busy
// spinning, then cooperative yields, then short sleeps so oversubscribed
// CI runners still make progress.
func hostSpin(spins int) {
	switch {
	case spins < 64:
		// busy spin
	case spins < 4096:
		runtime.Gosched()
	default:
		time.Sleep(10 * time.Microsecond)
	}
}

// Hold sampling. Reading the clock and adding to HoldNs on every
// acquire and release lengthens the very critical section being timed
// (on host-tcp-recv-2p, the serialized TCP state lock), so one
// acquisition in holdWeight is timed and its hold counted
// holdWeight times. Which one is decided by the acquisition number the
// lock's Acquires add already returns, through a multiplicative hash:
// the picks are spread evenly over every residue class, so a periodic
// hold pattern (short, long, short, ...) cannot line up with them, and
// the estimate is unbiased. Acquires, Contended, WaitNs and MaxWaiters
// stay exact.
const (
	holdSampleBits = 5
	holdWeight     = 1 << holdSampleBits
)

// timedHold reports whether the hold of acquisition number n is timed:
// the top holdSampleBits of n's Fibonacci hash are zero.
func timedHold(n int64) bool {
	return uint64(n)*0x9e3779b97f4a7c15>>(64-holdSampleBits) == 0
}

// holdStart is the start stamp of acquisition n's hold: the clock
// (never 0) when the hold is timed, else 0 without reading it. The
// holder keeps it in a plain field; the lock's own acquire and release
// edges order it between holders.
func (h *hostEngine) holdStart(n int64) int64 {
	if !timedHold(n) {
		return 0
	}
	return max(h.now(), 1)
}

// holdEnd adds a timed hold's weighted length to HoldNs.
func (h *hostEngine) holdEnd(stats *LockStats, since int64) {
	if since != 0 {
		atomic.AddInt64(&stats.HoldNs, holdWeight*(h.now()-since))
	}
}

// atomicMaxInt32 raises *m to at least v.
func atomicMaxInt32(m *atomic.Int32, v int32) {
	for {
		old := m.Load()
		if v <= old || m.CompareAndSwap(old, v) {
			return
		}
	}
}

// ---- host Mutex: unfair CAS spin lock ----

// hostMutex is the host-mode state embedded in Mutex: a word spun on
// with compare-and-swap. Like the simulated test-and-set lock it is
// deliberately unfair — whichever spinner's CAS lands first wins — so
// the reordering phenomenology the paper studies survives the backend
// swap. holder and since are the holder's alone: written after its CAS
// wins, read by its own Release, ordered by the word between holders.
type hostMutex struct {
	word    atomic.Int32
	holder  *Thread
	since   int64 // holdStart of the current hold
	waiting atomic.Int32
	maxWait atomic.Int32
}

func (m *Mutex) hostAcquire(t *Thread) {
	h := t.eng.host
	n := atomic.AddInt64(&m.stats.Acquires, 1)
	if m.hm.word.CompareAndSwap(0, 1) {
		m.hm.holder = t
		m.hm.since = h.holdStart(n)
		return
	}
	atomic.AddInt64(&m.stats.Contended, 1)
	atomicMaxInt32(&m.hm.maxWait, m.hm.waiting.Add(1))
	start := h.now()
	spins := 0
	for !m.hm.word.CompareAndSwap(0, 1) {
		hostSpin(spins)
		spins++
	}
	m.hm.waiting.Add(-1)
	m.hm.holder = t
	atomic.AddInt64(&m.stats.WaitNs, h.now()-start)
	m.hm.since = h.holdStart(n)
}

func (m *Mutex) hostRelease(t *Thread) {
	if m.hm.holder != t {
		panic("sim: Mutex.Release by non-holder: " + m.Name)
	}
	t.eng.host.holdEnd(&m.stats, m.hm.since)
	m.hm.holder = nil
	m.hm.word.Store(0)
}

// ---- host MCSLock: FIFO queue lock with direct handoff ----

type hostMCSWaiter struct {
	ch chan struct{}
	t  *Thread
}

// hostMCS is the host-mode state embedded in MCSLock and TicketLock's
// FIFO cousin: an internal mutex guards a waiter queue; release hands
// ownership directly to the queue head by closing its channel, so
// grants are strictly FIFO like the simulated MCS lock. since is the
// holder's alone, outside mu: a handed-off hold starts when its new
// holder runs, not when the releaser closed the channel.
type hostMCS struct {
	mu      sync.Mutex
	held    bool
	holder  *Thread
	since   int64
	queue   []*hostMCSWaiter
	maxWait int
}

func (q *hostMCS) acquire(t *Thread, stats *LockStats, name string) {
	h := t.eng.host
	n := atomic.AddInt64(&stats.Acquires, 1)
	q.mu.Lock()
	if !q.held {
		q.held = true
		q.holder = t
		q.mu.Unlock()
		q.since = h.holdStart(n)
		return
	}
	atomic.AddInt64(&stats.Contended, 1)
	w := &hostMCSWaiter{ch: make(chan struct{}), t: t}
	q.queue = append(q.queue, w)
	if n := len(q.queue); n > q.maxWait {
		q.maxWait = n
	}
	start := h.now()
	q.mu.Unlock()
	<-w.ch // direct handoff: the releaser installed us as holder
	atomic.AddInt64(&stats.WaitNs, h.now()-start)
	q.since = h.holdStart(n)
}

func (q *hostMCS) release(t *Thread, stats *LockStats, name string) {
	q.mu.Lock()
	if !q.held || q.holder != t {
		q.mu.Unlock()
		panic("sim: Release by non-holder: " + name)
	}
	t.eng.host.holdEnd(stats, q.since)
	if len(q.queue) == 0 {
		q.held = false
		q.holder = nil
		q.mu.Unlock()
		return
	}
	w := q.queue[0]
	q.queue = slices.Delete(q.queue, 0, 1) // copies down: the queue keeps its backing array
	q.holder = w.t
	q.mu.Unlock()
	close(w.ch)
}

// ---- host TicketLock: atomic ticket/serving pair ----

type hostTicket struct {
	next    atomic.Int64
	serving atomic.Int64
	holder  atomic.Pointer[Thread]
	since   int64 // holdStart of the current hold; holder-only
	maxWait atomic.Int32
}

func (q *hostTicket) acquire(t *Thread, stats *LockStats) {
	h := t.eng.host
	n := atomic.AddInt64(&stats.Acquires, 1)
	ticket := q.next.Add(1) - 1
	if s := q.serving.Load(); s != ticket {
		atomic.AddInt64(&stats.Contended, 1)
		if w := ticket - s; w > 0 {
			atomicMaxInt32(&q.maxWait, int32(w))
		}
		start := h.now()
		spins := 0
		for q.serving.Load() != ticket {
			hostSpin(spins)
			spins++
		}
		atomic.AddInt64(&stats.WaitNs, h.now()-start)
	}
	q.holder.Store(t)
	q.since = h.holdStart(n)
}

func (q *hostTicket) release(t *Thread, stats *LockStats, name string) {
	if q.holder.Load() != t {
		panic("sim: TicketLock.Release by non-holder: " + name)
	}
	t.eng.host.holdEnd(stats, q.since)
	q.holder.Store(nil)
	q.serving.Add(1)
}

// loadStats snapshots a LockStats updated with atomic adds (host mode)
// or plain engine-serialized increments (sim mode); both are safe to
// read this way.
func loadStats(s *LockStats, hostMaxWait int) LockStats {
	out := LockStats{
		Acquires:   atomic.LoadInt64(&s.Acquires),
		Contended:  atomic.LoadInt64(&s.Contended),
		WaitNs:     atomic.LoadInt64(&s.WaitNs),
		HoldNs:     atomic.LoadInt64(&s.HoldNs),
		MaxWaiters: s.MaxWaiters,
	}
	if hostMaxWait > out.MaxWaiters {
		out.MaxWaiters = hostMaxWait
	}
	return out
}
