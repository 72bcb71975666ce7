package tcp

import (
	"sync/atomic"

	"repro/internal/chksum"
	"repro/internal/event"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
	"repro/internal/xmap"
)

// Connection states (the subset a simplex in-memory transfer exercises,
// plus orderly close).
type connState int

const (
	stateClosed connState = iota
	stateListen
	stateSynSent
	stateSynRcvd
	stateEstablished
	stateFinWait1
	stateFinWait2
	stateCloseWait
	stateLastAck
	stateTimeWait
)

func (s connState) String() string {
	return [...]string{"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD",
		"ESTABLISHED", "FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT",
		"LAST_ACK", "TIME_WAIT"}[s]
}

// BSD-style timer slots, in 500 ms slow-timeout ticks.
const (
	timerRexmt = iota
	timerPersist
	timerKeep
	timer2MSL
	nTimers
)

const (
	slowTick    = 500_000_000 // 500 ms virtual
	fastTick    = 200_000_000 // 200 ms virtual
	minRexmt    = 2           // 1 s in slow ticks
	maxRexmt    = 128         // 64 s
	maxRexmtCnt = 12
	msl2Ticks   = 60 // 30 s
)

// lockSet implements the three locking layouts of Section 5.1. Every
// acquisition point in input/output processing calls one of its methods;
// the layout decides which underlying locks that means.
type lockSet struct {
	layout Layout

	// Layout1.
	l1 *sim.Lock

	// Layout2.
	snd, rcv *sim.Lock

	// Layout6 (SICS): reassembly queue, retransmission buffer, header
	// prepend, header remove, send window, receive window.
	reass, rexmt, hprep, hrem, swnd, rwnd *sim.Lock
}

func newLockSet(layout Layout, kind sim.LockKind) lockSet {
	ls := lockSet{layout: layout}
	switch layout {
	case Layout1:
		ls.l1 = sim.NewLock(kind, "tcp-state")
	case Layout2:
		ls.snd = sim.NewLock(kind, "tcp-snd")
		ls.rcv = sim.NewLock(kind, "tcp-rcv")
	case Layout6:
		ls.reass = sim.NewLock(kind, "tcp-reass")
		ls.rexmt = sim.NewLock(kind, "tcp-rexmt")
		ls.hprep = sim.NewLock(kind, "tcp-hprep")
		ls.hrem = sim.NewLock(kind, "tcp-hrem")
		ls.swnd = sim.NewLock(kind, "tcp-swnd")
		ls.rwnd = sim.NewLock(kind, "tcp-rwnd")
	}
	return ls
}

// lockState acquires whatever protects the whole connection state for
// the current layout. Net/2 manipulates send-side state on the receive
// path and receive-side state on the send path (header prediction needs
// both), so TCP-2 must take both locks and TCP-6 must take both window
// locks — exactly why the finer layouts buy overhead, not parallelism.
func (ls *lockSet) lockState(t *sim.Thread) {
	switch ls.layout {
	case Layout1:
		ls.l1.Acquire(t)
	case Layout2:
		ls.snd.Acquire(t)
		ls.rcv.Acquire(t)
	case Layout6:
		ls.swnd.Acquire(t)
		ls.rwnd.Acquire(t)
	}
}

func (ls *lockSet) unlockState(t *sim.Thread) {
	switch ls.layout {
	case Layout1:
		ls.l1.Release(t)
	case Layout2:
		ls.rcv.Release(t)
		ls.snd.Release(t)
	case Layout6:
		ls.rwnd.Release(t)
		ls.swnd.Release(t)
	}
}

// lockReass/unlockReass guard the reassembly queue; only Layout6 has a
// distinct lock (in TCP-1/2 the state lock already covers it — the
// "redundant or unnecessary" locking the paper describes).
func (ls *lockSet) lockReass(t *sim.Thread) {
	if ls.layout == Layout6 {
		ls.reass.Acquire(t)
	}
}

func (ls *lockSet) unlockReass(t *sim.Thread) {
	if ls.layout == Layout6 {
		ls.reass.Release(t)
	}
}

// lockRexmtQ guards the retransmission buffer, likewise distinct only
// under Layout6.
func (ls *lockSet) lockRexmtQ(t *sim.Thread) {
	if ls.layout == Layout6 {
		ls.rexmt.Acquire(t)
	}
}

func (ls *lockSet) unlockRexmtQ(t *sim.Thread) {
	if ls.layout == Layout6 {
		ls.rexmt.Release(t)
	}
}

// stateLockStats reports the contention statistics of the lock(s) that
// serialize connection state — the Pixie wait-time figure.
func (ls *lockSet) stateLockStats() sim.LockStats {
	switch ls.layout {
	case Layout1:
		return ls.l1.Stats()
	case Layout2:
		s := ls.snd.Stats()
		r := ls.rcv.Stats()
		s.Acquires += r.Acquires
		s.Contended += r.Contended
		s.WaitNs += r.WaitNs
		s.HoldNs += r.HoldNs
		return s
	default:
		s := ls.swnd.Stats()
		r := ls.rwnd.Stats()
		s.Acquires += r.Acquires
		s.Contended += r.Contended
		s.WaitNs += r.WaitNs
		s.HoldNs += r.HoldNs
		return s
	}
}

// rexmtSeg is one segment parked on the retransmission queue.
type rexmtSeg struct {
	seq   uint32
	dlen  int
	flags uint8
	m     *msg.Message // clone of the payload (nil for control segs)
	sent  int64        // virtual ns of (first) transmission
	rexmt bool         // has been retransmitted (Karn: no RTT sample)
}

// reassSeg is one out-of-order segment parked for reassembly.
type reassSeg struct {
	seq  uint32
	dlen int
	fin  bool
	m    *msg.Message
}

// TCB is the per-connection protocol control block.
type TCB struct {
	p     *Protocol
	part  xkernel.Part
	lower IPSession
	up    xkernel.Receiver
	ref   sim.RefCount

	locks   lockSet
	notFull sim.Cond // window space for blocked senders
	estCond sim.Cond // connection establishment

	state connState

	// Send sequence state.
	iss                    uint32
	sndUna, sndNxt, sndMax uint32
	sndWnd                 uint32
	sndCwnd, sndSsthresh   uint32
	dupAcks                int

	// Receive sequence state.
	irs         uint32
	rcvNxt      uint32
	rcvWnd      uint32
	lastAckSent uint32

	// Queues.
	rexmtQ []rexmtSeg
	reassQ []reassSeg

	// Delayed-ack state, under the state lock: data segments received
	// since the last ACK, whether a delayed ack is owed, and whether the
	// connection already sits on the protocol's pending-ack list.
	unacked   int
	delAckPnd bool
	onDelackQ bool

	// Timers and RTT estimation. timerDeadline is the authoritative
	// expiry (absolute slow tick, 0 = disarmed), with one embedded wheel
	// node per timer and, in timerParked, the tick that node was last
	// armed at (0 = off the wheel). A node may lag behind a pushed-out
	// deadline (re-arms that only extend are free); the expiry handler
	// re-arms it lazily.
	timerDeadline [nTimers]int64
	timerParked   [nTimers]int64
	timerNode     [nTimers]event.TimerNode
	rxtShift      int
	srtt          int64 // ns
	rttvar        int64 // ns
	rttTime       int64 // ns when the timed segment was sent; 0 = no timing
	rttSeq        uint32

	mss int

	// Ordering preservation (Section 4.2).
	upSeq sim.Sequencer

	// Per-connection instrumentation (Thread.Count: read by control-side
	// order snapshots while pump threads are still counting on the host
	// backend).
	oooIn      int64
	dataIn     int64
	finRcvd    bool
	closeCause string

	// rcvBytes is the data taken in order (rcv_nxt's advance, exact past
	// a sequence wrap), under the state lock.
	rcvBytes int64
	// link chains the TCB in the demux table; last, so the TCB keeps its
	// size class and the fields before it their cache lines.
	link xmap.Link[*TCB]
}

func newTCB(p *Protocol, part xkernel.Part, lower IPSession, up xkernel.Receiver) *TCB {
	var tcb *TCB
	p.freeMu.Lock()
	if n := len(p.tcbFree); n > 0 {
		tcb = p.tcbFree[n-1]
		p.tcbFree[n-1] = nil
		p.tcbFree = p.tcbFree[:n-1]
	}
	p.freeMu.Unlock()
	if tcb != nil {
		// Recycle a reaped block: everything resets except the queue
		// slices, whose capacity the last incarnation grew.
		*tcb = TCB{rexmtQ: tcb.rexmtQ[:0], reassQ: tcb.reassQ[:0]}
	} else {
		tcb = &TCB{}
	}
	tcb.p = p
	tcb.part = part
	tcb.lower = lower
	tcb.up = up
	tcb.locks = newLockSet(p.cfg.Layout, p.cfg.Kind)
	tcb.state = stateClosed
	for i := range tcb.timerNode {
		tcb.timerNode[i] = event.TimerNode{Arg: tcb, Which: i}
	}
	tcb.ref.Init(p.cfg.RefMode, 1)
	tcb.mss = lower.MSS() - HdrLen
	tcb.rcvWnd = p.cfg.Window
	tcb.sndCwnd = uint32(tcb.mss)
	tcb.sndSsthresh = p.cfg.Window
	tcb.srtt = 0
	tcb.notFull.L = stateLocker{tcb}
	tcb.estCond.L = stateLocker{tcb}
	return tcb
}

// stateLocker adapts the layout-dependent state locking to sim.Cond.
type stateLocker struct{ tcb *TCB }

func (s stateLocker) Acquire(t *sim.Thread) { s.tcb.locks.lockState(t) }
func (s stateLocker) Release(t *sim.Thread) { s.tcb.locks.unlockState(t) }

// lockAll / unlockAll wrap full-state locking for paths outside
// input/output fast paths (open, close, timers).
func (tcb *TCB) lockAll(t *sim.Thread)   { tcb.locks.lockState(t) }
func (tcb *TCB) unlockAll(t *sim.Thread) { tcb.locks.unlockState(t) }

// State returns the connection state (racy snapshot for tests/stats).
func (tcb *TCB) State() string { return tcb.state.String() }

// Established reports whether the connection is open for data.
func (tcb *TCB) Established() bool { return tcb.state == stateEstablished }

// MSS returns the maximum segment size.
func (tcb *TCB) MSS() int { return tcb.mss }

// OOOStats returns (out-of-order data segments, total data segments)
// observed at TCP input — the Table 1 measurement.
func (tcb *TCB) OOOStats() (int64, int64) {
	return atomic.LoadInt64(&tcb.oooIn), atomic.LoadInt64(&tcb.dataIn)
}

// InOrderBytes returns the data bytes the connection has taken in order:
// what its application is owed. Read it once the run is over.
func (tcb *TCB) InOrderBytes() int64 { return tcb.rcvBytes }

// StateLockStats exposes connection-state lock contention (the Pixie
// wait-fraction figure of Section 3.1).
func (tcb *TCB) StateLockStats() sim.LockStats { return tcb.locks.stateLockStats() }

// Sequencer returns the per-connection up-ticket sequencer used by
// order-requiring applications.
func (tcb *TCB) Sequencer() *sim.Sequencer { return &tcb.upSeq }

// verifyChecksum checks the transport checksum of a full segment
// (header still attached). Returns true when valid or absent.
func (tcb *TCB) verifyChecksum(t *sim.Thread, m *msg.Message) bool {
	b, err := m.Peek(m.Len())
	if err != nil {
		return false
	}
	if b[18] == 0 && b[19] == 0 {
		return true // sender did not checksum (driver templates)
	}
	return chksum.Verify(tcb.lower.Dst(), tcb.lower.Src(), 6, b)
}

// Close initiates an orderly release: sends FIN, transitions state.
func (tcb *TCB) Close(t *sim.Thread) error {
	tcb.lockAll(t)
	switch tcb.state {
	case stateEstablished:
		tcb.state = stateFinWait1
	case stateCloseWait:
		tcb.state = stateLastAck
	case stateListen, stateSynSent:
		err := tcb.drop(t, "close")
		tcb.unlockAll(t)
		return err
	case stateClosed:
		tcb.unlockAll(t)
		return nil
	default:
		tcb.unlockAll(t)
		return nil
	}
	seq := tcb.sndNxt
	tcb.sndNxt++
	tcb.sndMax = seqMax(tcb.sndMax, tcb.sndNxt)
	ack := tcb.rcvNxt
	tcb.unlockAll(t)
	return tcb.sendControl(t, FlagFIN|FlagACK, seq, ack)
}

// Abort marks the connection closed and unblocks every thread parked on
// it (window waits, establishment waits). Experiment teardown uses this
// to stop pump threads cleanly.
func (tcb *TCB) Abort(t *sim.Thread) {
	tcb.lockAll(t)
	tcb.state = stateClosed
	tcb.freeQueues(t)
	tcb.notFull.Broadcast(t)
	tcb.estCond.Broadcast(t)
	tcb.unlockAll(t)
}

// drop tears the connection down and removes its demux binding. Every
// parked timer node is cancelled here, so a timer on a closed connection
// can never fire (and a recycled block never inherits its predecessor's
// timers). Callers hold the state lock.
func (tcb *TCB) drop(t *sim.Thread, cause string) error {
	tcb.closeCause = cause
	tcb.state = stateClosed
	tcb.delAckPnd = false
	for i := range tcb.timerNode {
		tcb.timerDeadline[i] = 0
		if tcb.timerParked[i] != 0 {
			tcb.timerParked[i] = 0
			tcb.p.tw.Cancel(t, &tcb.timerNode[i])
		}
	}
	tcb.freeQueues(t)
	return tcb.p.tcbs.Unbind(t, tcb.MapKey())
}

// freeQueues releases every message parked on the retransmission and
// reassembly queues — nothing will ever retransmit or drain them once
// the state is Closed. Called with the state lock held; takes the
// sub-queue locks in the same state -> queue order as the data paths.
func (tcb *TCB) freeQueues(t *sim.Thread) {
	tcb.locks.lockRexmtQ(t)
	for i := range tcb.rexmtQ {
		if tcb.rexmtQ[i].m != nil {
			tcb.rexmtQ[i].m.Free(t)
		}
		tcb.rexmtQ[i] = rexmtSeg{}
	}
	tcb.rexmtQ = tcb.rexmtQ[:0]
	tcb.locks.unlockRexmtQ(t)
	tcb.locks.lockReass(t)
	for i := range tcb.reassQ {
		if tcb.reassQ[i].m != nil {
			tcb.reassQ[i].m.Free(t)
		}
		tcb.reassQ[i] = reassSeg{}
	}
	tcb.reassQ = tcb.reassQ[:0]
	tcb.locks.unlockReass(t)
}

// sendControl emits a zero- or implicit-length control segment (SYN,
// FIN, RST, pure ACK) outside any state lock; callers snapshot fields
// first.
func (tcb *TCB) sendControl(t *sim.Thread, flags uint8, seqn, ack uint32) error {
	st := &t.Engine().C.Stack
	t.ChargeRand(st.TCPAckGen)
	m, err := tcb.p.alloc.New(t, 0, msg.Headroom)
	if err != nil {
		return err
	}
	h, err := m.Push(t, HdrLen)
	if err != nil {
		m.Free(t)
		return err
	}
	putHeader(h, tcb.part.LocalPort, tcb.part.RemotePort, seqn, ack, flags, tcb.rcvWnd)
	tcb.finishChecksum(t, m)
	t.Count(&tcb.p.stats.At(t).SegsOut, 1)
	if flags&FlagACK != 0 {
		t.Count(&tcb.p.stats.At(t).AcksOut, 1)
	}
	return tcb.lower.Push(t, m)
}

// finishChecksum computes and stores the transport checksum when
// enabled. For Layout6 this runs under the header-prepend lock (the
// SICS structure the paper criticizes); callers on the send path
// arrange that.
func (tcb *TCB) finishChecksum(t *sim.Thread, m *msg.Message) {
	if tcb.p.cfg.Checksum == ChecksumOff {
		return
	}
	t.ChargeBytes(t.Engine().C.Stack.ChecksumByte, m.Len())
	b, err := m.Peek(m.Len())
	if err != nil {
		return
	}
	b[18], b[19] = 0, 0
	ck := chksum.SumPseudo(tcb.lower.Src(), tcb.lower.Dst(), 6, b)
	if ck == 0 {
		ck = 0xffff
	}
	b[18] = byte(ck >> 8)
	b[19] = byte(ck)
}
