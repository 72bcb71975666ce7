package sim

// Simulated locks. One Lock type carries the paper's three lock kinds,
// and the kinds differ in one thing: who gets a freed lock. Contention,
// probe timing and coherence penalties are modeled explicitly, so the
// ordering phenomena the paper studies — the unfair mutex reordering
// contending threads, the FIFO MCS lock preserving their order — emerge
// from the same mechanisms as on real hardware. On the host backend the
// same Lock runs on real atomics (host.go).

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Locker is what a condition variable needs of its lock (Cond.L): a
// *Lock, or an adapter that takes several, like TCP's layout-dependent
// state locking.
type Locker interface {
	Acquire(t *Thread)
	Release(t *Thread)
}

// LockStats accumulates contention statistics, the stand-in for the
// paper's Pixie profiles ("90 percent of the time is spent waiting to
// acquire the TCP connection state lock").
type LockStats struct {
	Acquires   int64
	Contended  int64
	WaitNs     int64 // total virtual ns spent blocked on this lock
	HoldNs     int64 // total virtual ns the lock was held
	MaxWaiters int
}

// WaitFraction returns waiting time as a fraction of total virtual time
// elapsed, the figure the paper quotes from its profiles.
func (s LockStats) WaitFraction(totalNs int64) float64 {
	if totalNs <= 0 {
		return 0
	}
	return float64(s.WaitNs) / float64(totalNs)
}

// lockWait is a blocked thread's record on the lock it waits for. It is
// embedded in Thread, so a contended acquire allocates nothing.
type lockWait struct {
	start      int64 // virtual time the wait began
	holderProc int   // processor holding the lock when the wait began
}

// chargeLine charges t a coherence penalty when a shared cache line was
// last touched by another processor. *lastProc holds 1 + that
// processor, 0 before the first touch, so a zero cell is ready to use.
// Sync-bus machines do not pay this for synchronization traffic.
func chargeLine(t *Thread, lastProc *int32) {
	s := &t.eng.C.Sync
	if !s.SyncBus && *lastProc != 0 && *lastProc != int32(t.Proc)+1 {
		t.Charge(s.Coherence)
	}
	*lastProc = int32(t.Proc) + 1
}

// LockKind selects a lock's grant rule.
type LockKind int

const (
	// KindMutex is the raw IRIX mutex of the paper: a test-and-set spin
	// lock. It is not FIFO: all waiters spin on the lock word, and when
	// it is released the cache/bus arbitration decides which spinner's
	// test-and-set lands first — a random one among the longest-waiting
	// few. Under light contention (zero or one waiter) grants still
	// happen in arrival order, so misordering stays rare; once the lock
	// saturates and several threads queue up, random grants reorder
	// threads, and therefore packets, increasingly often — exactly the
	// gradual ramp of the paper's Table 1.
	KindMutex LockKind = iota
	// KindMCS is the MCS list-based queueing lock the paper built from
	// R4000 load-linked/store-conditional: strictly FIFO, each waiter
	// spins on its own cache line, a hand-off costs one line transfer.
	KindMCS
	// KindTicket is the other classic FIFO lock, kept for ablation
	// against MCS: all waiters spin on one now-serving counter, so a
	// hand-off invalidates it in every waiter's cache and costs more the
	// more threads wait.
	KindTicket
)

var kindNames = []string{KindMutex: "mutex", KindMCS: "mcs", KindTicket: "ticket"}

func (k LockKind) String() string { return EnumName(kindNames, k) }

// Set parses a lock kind name (flag.Value).
func (k *LockKind) Set(s string) error { return SetEnum(k, "lock kind", s, kindNames) }

// Lock is a lock of one of the three kinds. The zero value is a free
// KindMutex; NewLock builds the others. Both substrates keep the holder,
// the start of its hold and the statistics in the same fields. The
// fields an uncontended acquire and release touch come first, within 48
// bytes.
type Lock struct {
	Name string

	holder    *Thread // nil when free
	heldSince int64   // start of the current hold (host: holdStart's stamp)
	kind      LockKind
	lastProc  int32        // chargeLine's cell for the lock word (sim)
	word      atomic.Int32 // the host mutex's test-and-set word
	stats     LockStats
	queue     []*Thread // waiters in arrival order (sim; the host's MCS lock)

	// The rest of the host backend's state (host.go); unused on the sim.
	mu            sync.Mutex   // KindMCS: guards holder and queue
	spinning      atomic.Int32 // KindMutex: threads spinning on word
	maxWait       atomic.Int32 // most threads seen waiting at once
	next, serving atomic.Int64 // KindTicket: the ticket/serving pair
}

// NewLock builds a lock of the given kind.
func NewLock(kind LockKind, name string) *Lock {
	if kind.String() == "invalid" {
		panic("sim: unknown lock kind") // kinds are validated where they are parsed
	}
	return &Lock{Name: name, kind: kind}
}

// Acquire blocks until the calling thread holds the lock.
func (l *Lock) Acquire(t *Thread) {
	if t.eng.host != nil {
		l.hostAcquire(t)
		return
	}
	t.Sync()
	s := &t.eng.C.Sync
	// The atomic that starts an acquire: a test-and-set probe, the MCS
	// tail swap, or the ticket counter's fetch-and-increment.
	probe := s.LockProbe
	switch l.kind {
	case KindMCS:
		probe = s.MCSSwap
	case KindTicket:
		probe = s.Atomic
	}
	t.ChargeRand(probe)
	chargeLine(t, &l.lastProc)
	l.stats.Acquires++
	t.eng.Rec.LockAcquire(t.Proc)
	if l.holder == nil {
		l.holder = t
		l.heldSince = t.Now()
		t.Charge(s.LockEnter)
		return
	}
	if l.kind == KindMutex {
		// The spinner's first backoff gap. The grant time is drawn at
		// release, so only the draw itself matters here: it keeps the
		// thread's random stream, and with it every golden, where it was.
		t.rng.Jitter(s.BackoffMin, t.eng.C.JitterFrac)
	}
	w := &t.wait
	*w = lockWait{start: t.Now(), holderProc: l.holder.Proc}
	l.queue = append(l.queue, t)
	l.stats.Contended++
	l.stats.MaxWaiters = max(l.stats.MaxWaiters, len(l.queue))
	t.blockOn(kindNames[l.kind], l.Name)
	// The releaser has made us the holder and set our wake time.
	wait := t.Now() - w.start
	l.stats.WaitNs += wait
	t.eng.Rec.LockWait(t.Proc, l.Name, w.start, wait, w.holderProc)
	t.Charge(s.LockEnter)
}

// Release unlocks. If threads wait, the kind's grant rule picks one and
// makes it the holder directly.
func (l *Lock) Release(t *Thread) {
	if t.eng.host != nil {
		l.hostRelease(t)
		return
	}
	t.Sync()
	if l.holder != t {
		panic("sim: " + l.kind.String() + " lock " + l.Name + " released by non-holder " + t.name)
	}
	s := &t.eng.C.Sync
	t.Charge(s.LockExit)
	hold := t.Now() - l.heldSince
	l.stats.HoldNs += hold
	if rec := t.eng.Rec; rec != nil {
		rec.LockHold(t.Proc, l.Name, l.heldSince, hold)
	}
	if len(l.queue) == 0 {
		l.holder = nil
		return
	}
	// The grant rule. The FIFO kinds take the queue head. The mutex
	// models bus arbitration: a random spinner among the few
	// longest-waiting ones wins the race for the freed lock word (newer
	// arrivals are still settling into their spin loops).
	i := 0
	if l.kind == KindMutex {
		i = t.rng.Intn(min(max(s.ArbWindow, 1), len(l.queue)))
	}
	w := l.queue[i]
	l.queue = slices.Delete(l.queue, i, i+1) // copies down: the queue keeps its backing array
	grantAt := t.Now() + s.Handoff
	switch l.kind {
	case KindMutex:
		// The winner's probe lands within one backoff gap of the release.
		grantAt = t.Now() + int64(w.rng.Uint64()%uint64(max(s.BackoffMin, 1))) + s.LockProbe
		if !s.SyncBus && w.Proc != t.Proc {
			grantAt += s.Coherence
		}
	case KindTicket:
		// The now-serving store invalidates every remaining spinner's line.
		if !s.SyncBus {
			grantAt += s.Coherence * int64(len(l.queue))
		}
	}
	l.holder = w
	l.heldSince = grantAt
	l.lastProc = int32(w.Proc) + 1
	t.eng.Wake(w, grantAt)
}

// Stats returns a snapshot of the accumulated statistics. Host threads
// add to them with atomics while it reads.
func (l *Lock) Stats() LockStats {
	return LockStats{
		Acquires:   atomic.LoadInt64(&l.stats.Acquires),
		Contended:  atomic.LoadInt64(&l.stats.Contended),
		WaitNs:     atomic.LoadInt64(&l.stats.WaitNs),
		HoldNs:     atomic.LoadInt64(&l.stats.HoldNs),
		MaxWaiters: max(l.stats.MaxWaiters, int(l.maxWait.Load())),
	}
}
