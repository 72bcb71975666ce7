package sim

// Host backend: the same Engine/Thread/Lock API executed on real
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
//   - Lock's kinds keep their structural identities — the mutex is an
//     unfair compare-and-swap spin lock, MCS a FIFO queue lock with
//     direct hand-off, the ticket lock an atomic ticket/serving pair —
//     in one acquire and one release (below) that use the simulation's
//     holder, hold-start and queue fields and feed the same LockStats
//     fields in wall-clock ns: wait exact, hold sampled 1/32 at weight
//     32 (timedHold), so the 31 untimed holds in 32 read no clock
//     inside the critical section they are timing.
//   - Run waits for every spawned goroutine to return. There is no
//     deadlock detector.
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

// ---- host locks ----

// On the host a Lock keeps its kind's structural identity. The mutex is
// a word spun on with compare-and-swap: whichever spinner's CAS lands
// first wins, as unfair as the simulated test-and-set lock, so the
// reordering the paper studies survives the backend swap. The ticket
// lock is an atomic ticket/serving pair. The MCS lock is a FIFO queue
// under mu with direct hand-off: the releaser makes the queue head the
// holder, then wakes it on the thread's own resume channel, so a
// hand-off allocates nothing. heldSince, and holder outside MCS, are
// written by the thread that has just got the lock and read by its own
// Release; the word, the serving counter or mu orders them between
// holders.

func (l *Lock) hostAcquire(t *Thread) {
	h := t.eng.host
	n := atomic.AddInt64(&l.stats.Acquires, 1)
	start := int64(-1) // the clock when a contended wait began
	switch l.kind {
	case KindMCS:
		l.mu.Lock()
		if l.holder == nil {
			l.holder = t
			l.mu.Unlock()
			break
		}
		atomic.AddInt64(&l.stats.Contended, 1)
		l.queue = append(l.queue, t)
		atomicMaxInt32(&l.maxWait, int32(len(l.queue)))
		start = h.now()
		l.mu.Unlock()
		// Only the releaser's hand-off makes us the holder. A token we
		// did not earn (a wake meant for Block) parks us again.
		for mine := false; !mine; {
			<-t.resume
			l.mu.Lock()
			mine = l.holder == t
			l.mu.Unlock()
		}
	case KindTicket:
		ticket := l.next.Add(1) - 1
		if s := l.serving.Load(); s != ticket {
			atomic.AddInt64(&l.stats.Contended, 1)
			atomicMaxInt32(&l.maxWait, int32(ticket-s))
			start = h.now()
			for spins := 0; l.serving.Load() != ticket; spins++ {
				hostSpin(spins)
			}
		}
		l.holder = t
	default:
		if !l.word.CompareAndSwap(0, 1) {
			atomic.AddInt64(&l.stats.Contended, 1)
			atomicMaxInt32(&l.maxWait, l.spinning.Add(1))
			start = h.now()
			for spins := 0; !l.word.CompareAndSwap(0, 1); spins++ {
				hostSpin(spins)
			}
			l.spinning.Add(-1)
		}
		l.holder = t
	}
	if start >= 0 {
		atomic.AddInt64(&l.stats.WaitNs, h.now()-start)
	}
	l.heldSince = h.holdStart(n)
}

func (l *Lock) hostRelease(t *Thread) {
	mcs := l.kind == KindMCS
	if mcs {
		l.mu.Lock()
	}
	if l.holder != t {
		if mcs {
			l.mu.Unlock()
		}
		panic("sim: host " + l.kind.String() + " lock " + l.Name + " released by non-holder " + t.name)
	}
	t.eng.host.holdEnd(&l.stats, l.heldSince)
	switch l.kind {
	case KindMCS:
		var w *Thread
		if len(l.queue) > 0 {
			w = l.queue[0]
			l.queue = slices.Delete(l.queue, 0, 1) // copies down: the queue keeps its backing array
		}
		l.holder = w
		l.mu.Unlock()
		if w != nil {
			w.hostWake()
		}
	case KindTicket:
		l.holder = nil
		l.serving.Add(1)
	default:
		l.holder = nil
		l.word.Store(0)
	}
}
