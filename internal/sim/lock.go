package sim

// Simulated locks. Contention, probe timing and coherence penalties are
// modeled explicitly so that the ordering phenomena the paper studies —
// unfair locks reordering contending threads, FIFO MCS locks preserving
// order — emerge from the same mechanisms as on real hardware.

import "slices"

// Locker is the interface shared by all simulated lock kinds.
type Locker interface {
	Acquire(t *Thread)
	Release(t *Thread)
	Stats() LockStats
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
// last touched by another processor. Sync-bus machines do not pay this
// for synchronization traffic.
func chargeLine(t *Thread, lastProc *int32) {
	s := &t.eng.C.Sync
	if !s.SyncBus && *lastProc >= 0 && *lastProc != int32(t.Proc) {
		t.Charge(s.Coherence)
	}
	*lastProc = int32(t.Proc)
}

// ---- Mutex: unfair test-and-set lock with exponential backoff ----

// Mutex models the raw IRIX mutex of the paper: a test-and-set spin
// lock. It is not FIFO: all waiters spin on the lock word, and when it
// is released the cache/bus arbitration decides which spinner's
// test-and-set lands first — effectively a uniformly random waiter, not
// the longest-waiting one. Under light contention (zero or one waiter)
// grants still happen in arrival order, so misordering stays rare; once
// the lock saturates and several threads queue up, random grants
// reorder threads, and therefore packets, increasingly often — exactly
// the gradual ramp of the paper's Table 1.
type Mutex struct {
	Name string

	held      bool
	holder    *Thread
	heldSince int64
	lastProc  int32
	waiters   []*Thread
	stats     LockStats
	inited    bool

	// hm is the host-backend lock state (see host.go); unused in sim
	// mode.
	hm hostMutex
}

func (m *Mutex) init() {
	if !m.inited {
		m.lastProc = -1
		m.inited = true
	}
}

// Acquire blocks until the calling thread holds the lock.
func (m *Mutex) Acquire(t *Thread) {
	if t.eng.host != nil {
		m.hostAcquire(t)
		return
	}
	t.Sync()
	m.init()
	s := &t.eng.C.Sync
	t.ChargeRand(s.LockProbe)
	chargeLine(t, &m.lastProc)
	m.stats.Acquires++
	t.eng.Tel.LockAcquire(t.Proc)
	if !m.held {
		m.held = true
		m.holder = t
		m.heldSince = t.Now()
		t.Charge(s.LockEnter)
		return
	}
	// The spinner's first backoff gap. The grant time is drawn at
	// release, so only the draw itself matters here: it keeps the
	// thread's random stream, and with it every golden, where it was.
	t.rng.Jitter(s.BackoffMin, t.eng.C.JitterFrac)
	w := &t.wait
	*w = lockWait{start: t.Now(), holderProc: m.holder.Proc}
	m.waiters = append(m.waiters, t)
	m.stats.Contended++
	if len(m.waiters) > m.stats.MaxWaiters {
		m.stats.MaxWaiters = len(m.waiters)
	}
	t.blockOn("mutex", m.Name)
	// The releaser has made us the holder and set our wake time.
	wait := t.Now() - w.start
	m.stats.WaitNs += wait
	t.eng.Rec.LockWait(t.Proc, m.Name, w.start, wait, w.holderProc)
	t.eng.Tel.LockWait(t.Proc, m.Name, wait, w.holderProc)
	t.Charge(s.LockEnter)
}

// Release unlocks; if waiters exist, the earliest-probing one is granted
// ownership directly.
func (m *Mutex) Release(t *Thread) {
	if t.eng.host != nil {
		m.hostRelease(t)
		return
	}
	t.Sync()
	if !m.held || m.holder != t {
		panic("sim: Mutex.Release by non-holder: " + m.Name)
	}
	s := &t.eng.C.Sync
	t.Charge(s.LockExit)
	hold := t.Now() - m.heldSince
	m.stats.HoldNs += hold
	t.eng.Rec.LockHold(t.Proc, m.Name, m.heldSince, hold)
	t.eng.Tel.LockHold(t.Proc, hold)
	if len(m.waiters) == 0 {
		m.held = false
		m.holder = nil
		return
	}
	r := t.Now()
	// Bus arbitration: a random spinner among the few longest-waiting
	// ones wins the race for the freed lock word (newer arrivals are
	// still settling into their spin loops). Its probe lands within one
	// backoff gap of the release.
	window := s.ArbWindow
	if window < 1 {
		window = 1
	}
	if window > len(m.waiters) {
		window = len(m.waiters)
	}
	best := t.rng.Intn(window)
	w := m.waiters[best]
	m.waiters = slices.Delete(m.waiters, best, best+1)
	gap := s.BackoffMin
	if gap < 1 {
		gap = 1
	}
	grantAt := r + int64(w.rng.Uint64()%uint64(gap)) + s.LockProbe
	if !s.SyncBus && w.Proc != t.Proc {
		grantAt += s.Coherence
	}
	m.holder = w
	m.heldSince = grantAt
	m.lastProc = int32(w.Proc)
	t.eng.Wake(w, grantAt)
}

// Stats returns a copy of the accumulated statistics.
func (m *Mutex) Stats() LockStats { return loadStats(&m.stats, int(m.hm.maxWait.Load())) }

// ---- MCSLock: FIFO queue lock (Mellor-Crummey & Scott) ----

// MCSLock models the MCS list-based queueing lock the paper built from
// R4000 load-linked/store-conditional: strictly FIFO, each waiter spins
// on its own cache line, handoff costs one line transfer.
type MCSLock struct {
	Name string

	held      bool
	holder    *Thread
	heldSince int64
	lastProc  int32
	queue     []*Thread
	stats     LockStats
	inited    bool

	// hq is the host-backend FIFO lock state (see host.go); unused in
	// sim mode.
	hq hostMCS
}

func (m *MCSLock) init() {
	if !m.inited {
		m.lastProc = -1
		m.inited = true
	}
}

// Acquire enqueues FIFO and blocks until granted.
func (m *MCSLock) Acquire(t *Thread) {
	if t.eng.host != nil {
		m.hq.acquire(t, &m.stats, m.Name)
		return
	}
	t.Sync()
	m.init()
	s := &t.eng.C.Sync
	t.ChargeRand(s.MCSSwap)
	chargeLine(t, &m.lastProc)
	m.stats.Acquires++
	t.eng.Tel.LockAcquire(t.Proc)
	if !m.held {
		m.held = true
		m.holder = t
		m.heldSince = t.Now()
		t.Charge(s.LockEnter)
		return
	}
	w := &t.wait
	*w = lockWait{start: t.Now(), holderProc: m.holder.Proc}
	m.queue = append(m.queue, t)
	m.stats.Contended++
	if len(m.queue) > m.stats.MaxWaiters {
		m.stats.MaxWaiters = len(m.queue)
	}
	t.blockOn("mcs", m.Name)
	wait := t.Now() - w.start
	m.stats.WaitNs += wait
	t.eng.Rec.LockWait(t.Proc, m.Name, w.start, wait, w.holderProc)
	t.eng.Tel.LockWait(t.Proc, m.Name, wait, w.holderProc)
	t.Charge(s.LockEnter)
}

// Release hands the lock to the queue head, if any.
func (m *MCSLock) Release(t *Thread) {
	if t.eng.host != nil {
		m.hq.release(t, &m.stats, "mcs "+m.Name)
		return
	}
	t.Sync()
	if !m.held || m.holder != t {
		panic("sim: MCSLock.Release by non-holder: " + m.Name)
	}
	s := &t.eng.C.Sync
	t.Charge(s.LockExit)
	hold := t.Now() - m.heldSince
	m.stats.HoldNs += hold
	t.eng.Rec.LockHold(t.Proc, m.Name, m.heldSince, hold)
	t.eng.Tel.LockHold(t.Proc, hold)
	if len(m.queue) == 0 {
		m.held = false
		m.holder = nil
		return
	}
	w := m.queue[0]
	m.queue = slices.Delete(m.queue, 0, 1) // copies down: the queue keeps its backing array
	grantAt := t.Now() + s.Handoff
	m.holder = w
	m.heldSince = grantAt
	m.lastProc = int32(w.Proc)
	t.eng.Wake(w, grantAt)
}

// Stats returns a copy of the accumulated statistics.
func (m *MCSLock) Stats() LockStats {
	m.hq.mu.Lock()
	hmax := m.hq.maxWait
	m.hq.mu.Unlock()
	return loadStats(&m.stats, hmax)
}

// ---- TicketLock: FIFO, but all waiters spin on one counter ----

// TicketLock is the other classic FIFO lock, kept for ablation against
// MCS: handoff invalidates the now-serving counter in every waiter's
// cache, so its cost grows with the number of waiters.
type TicketLock struct {
	Name string

	held      bool
	holder    *Thread
	heldSince int64
	lastProc  int32
	queue     []*Thread
	stats     LockStats
	inited    bool

	// hq is the host-backend ticket/serving pair (see host.go); unused
	// in sim mode.
	hq hostTicket
}

func (l *TicketLock) init() {
	if !l.inited {
		l.lastProc = -1
		l.inited = true
	}
}

// Acquire takes a ticket (FIFO) and blocks until served.
func (l *TicketLock) Acquire(t *Thread) {
	if t.eng.host != nil {
		l.hq.acquire(t, &l.stats)
		return
	}
	t.Sync()
	l.init()
	s := &t.eng.C.Sync
	t.ChargeRand(s.Atomic) // fetch-and-increment of the ticket counter
	chargeLine(t, &l.lastProc)
	l.stats.Acquires++
	t.eng.Tel.LockAcquire(t.Proc)
	if !l.held {
		l.held = true
		l.holder = t
		l.heldSince = t.Now()
		t.Charge(s.LockEnter)
		return
	}
	w := &t.wait
	*w = lockWait{start: t.Now(), holderProc: l.holder.Proc}
	l.queue = append(l.queue, t)
	l.stats.Contended++
	if len(l.queue) > l.stats.MaxWaiters {
		l.stats.MaxWaiters = len(l.queue)
	}
	t.blockOn("ticket", l.Name)
	wait := t.Now() - w.start
	l.stats.WaitNs += wait
	t.eng.Rec.LockWait(t.Proc, l.Name, w.start, wait, w.holderProc)
	t.eng.Tel.LockWait(t.Proc, l.Name, wait, w.holderProc)
	t.Charge(s.LockEnter)
}

// Release serves the next ticket holder; the invalidation broadcast
// charges the winner in proportion to the spinning crowd.
func (l *TicketLock) Release(t *Thread) {
	if t.eng.host != nil {
		l.hq.release(t, &l.stats, l.Name)
		return
	}
	t.Sync()
	if !l.held || l.holder != t {
		panic("sim: TicketLock.Release by non-holder: " + l.Name)
	}
	s := &t.eng.C.Sync
	t.Charge(s.LockExit)
	hold := t.Now() - l.heldSince
	l.stats.HoldNs += hold
	t.eng.Rec.LockHold(t.Proc, l.Name, l.heldSince, hold)
	t.eng.Tel.LockHold(t.Proc, hold)
	if len(l.queue) == 0 {
		l.held = false
		l.holder = nil
		return
	}
	w := l.queue[0]
	l.queue = slices.Delete(l.queue, 0, 1) // copies down: the queue keeps its backing array
	grantAt := t.Now() + s.Handoff
	if !s.SyncBus {
		grantAt += s.Coherence * int64(len(l.queue))
	}
	l.holder = w
	l.heldSince = grantAt
	l.lastProc = int32(w.Proc)
	t.eng.Wake(w, grantAt)
}

// Stats returns a copy of the accumulated statistics.
func (l *TicketLock) Stats() LockStats { return loadStats(&l.stats, int(l.hq.maxWait.Load())) }

// LockKind selects a lock implementation for protocol state.
type LockKind int

const (
	// KindMutex is the raw unfair spin lock (IRIX mutex).
	KindMutex LockKind = iota
	// KindMCS is the FIFO MCS queue lock.
	KindMCS
	// KindTicket is the FIFO ticket lock (ablation only).
	KindTicket
)

var kindNames = []string{KindMutex: "mutex", KindMCS: "mcs", KindTicket: "ticket"}

func (k LockKind) String() string { return EnumName(kindNames, k) }

// Set parses a lock kind name (flag.Value).
func (k *LockKind) Set(s string) error { return SetEnum(k, "lock kind", s, kindNames) }

// NewLock builds a lock of the given kind.
func NewLock(kind LockKind, name string) Locker {
	switch kind {
	case KindMutex:
		return &Mutex{Name: name}
	case KindMCS:
		return &MCSLock{Name: name}
	case KindTicket:
		return &TicketLock{Name: name}
	}
	panic("sim: unknown lock kind")
}
