package tcp

import (
	"repro/internal/msg"
	"repro/internal/sim"
)

// Send-side processing (tcp_output). The structure follows the paper's
// Section 5.1 observations:
//
//   - Sequence-number assignment, window checks and the retransmission
//     queue append happen under the connection state lock(s).
//   - Header finalization and (for TCP-1/TCP-2) checksum calculation
//     happen *after* the state lock is released: "checksumming a packet
//     is orthogonal to manipulating connection state".
//   - For TCP-6, the checksum runs under the header-prepend lock, as in
//     the SICS implementation the layout reproduces.

// Push sends application data on the connection, segmenting to the MSS
// and blocking while the flow-control/congestion window is full.
func (tcb *TCB) Push(t *sim.Thread, m *msg.Message) error {
	if rec := t.Engine().Rec; rec != nil {
		start := t.Now()
		defer func() { rec.LayerSpan(t.Proc, "tcp-send", start, t.Now()-start) }()
	}
	t.ChargeRand(t.Engine().C.Stack.TCPSendPre)
	if m.Len() <= tcb.mss {
		return tcb.sendSegment(t, m, FlagACK|FlagPSH)
	}
	total := m.Len()
	for off := 0; off < total; off += tcb.mss {
		n := tcb.mss
		if off+n > total {
			n = total - off
		}
		frag, err := m.Fragment(t, off, n)
		if err != nil {
			m.Free(t)
			return err
		}
		flags := uint8(FlagACK)
		if off+n == total {
			flags |= FlagPSH
		}
		if err := tcb.sendSegment(t, frag, flags); err != nil {
			m.Free(t)
			return err
		}
	}
	m.Free(t)
	return nil
}

// sendWindow returns the usable window: the lesser of the peer's
// advertised (32-bit) window and the congestion window.
func (tcb *TCB) sendWindow() uint32 {
	w := tcb.sndWnd
	if tcb.sndCwnd < w {
		w = tcb.sndCwnd
	}
	return w
}

// sendSegment transmits one data segment of at most MSS bytes.
func (tcb *TCB) sendSegment(t *sim.Thread, m *msg.Message, flags uint8) error {
	st := &t.Engine().C.Stack
	dlen := m.Len()

	tcb.locks.lockState(t)
	for {
		if tcb.state != stateEstablished && tcb.state != stateCloseWait {
			tcb.locks.unlockState(t)
			m.Free(t)
			return ErrClosed
		}
		outstanding := tcb.sndNxt - tcb.sndUna
		if outstanding+uint32(dlen) <= tcb.sendWindow() {
			break
		}
		tcb.notFull.Wait(t, "tcp: window full")
	}
	seqn := tcb.sndNxt
	tcb.sndNxt += uint32(dlen)
	tcb.sndMax = seqMax(tcb.sndMax, tcb.sndNxt)
	ack := tcb.rcvNxt // receive-side state read on the send path
	win := tcb.rcvWnd
	t.ChargeRand(st.TCPSendLocked)

	// Build the header while the segment is solely owned (no
	// copy-on-write), then park a clone — header included — on the
	// retransmission queue; a retransmission patches the ack, window
	// and checksum fields in place.
	if tcb.locks.layout == Layout6 {
		// SICS: header prepend (and the checksum below) under the
		// prepend lock, acquired while the window locks are held.
		tcb.locks.hprep.Acquire(t)
	}
	h, err := m.Push(t, HdrLen)
	if err != nil {
		if tcb.locks.layout == Layout6 {
			tcb.locks.hprep.Release(t)
		}
		tcb.locks.unlockState(t)
		m.Free(t)
		return err
	}
	putHeader(h, tcb.part.LocalPort, tcb.part.RemotePort, seqn, ack, flags, win)

	tcb.locks.lockRexmtQ(t)
	tcb.rexmtQ = append(tcb.rexmtQ, rexmtSeg{
		seq:   seqn,
		dlen:  dlen,
		flags: flags,
		m:     m.Clone(t),
		sent:  t.Now(),
	})
	tcb.locks.unlockRexmtQ(t)

	if !tcb.timerArmed(timerRexmt) {
		tcb.setTimer(t, timerRexmt, tcb.rexmtTicks())
	}
	if tcb.rttTime == 0 {
		tcb.rttTime = t.Now()
		tcb.rttSeq = seqn
	}
	tcb.unacked = 0 // piggybacked ack below
	tcb.delAckPnd = false
	if tcb.locks.layout != Layout6 {
		// TCP-1/2: release the state lock before checksumming —
		// "checksumming a packet is orthogonal to manipulating
		// connection state" (Section 5.1).
		tcb.locks.unlockState(t)
	}

	t.ChargeRand(st.TCPSendPost)
	tcb.finishChecksum(t, m)
	if tcb.locks.layout == Layout6 {
		// SICS structure: the checksum was calculated where headers
		// are prepended, inside the scope of the send window lock —
		// the very placement the paper's Section 5.1 criticizes.
		tcb.locks.hprep.Release(t)
		tcb.locks.unlockState(t)
	}

	t.Count(&tcb.p.stats.At(t).SegsOut, 1)
	t.Count(&tcb.p.stats.At(t).BytesOut, int64(dlen))
	return tcb.lower.Push(t, m)
}

// sendAckNow emits a pure ACK reflecting the given snapshot.
func (tcb *TCB) sendAckNow(t *sim.Thread, ack uint32, win uint32) error {
	st := &t.Engine().C.Stack
	t.ChargeRand(st.TCPAckGen)
	m, err := tcb.p.alloc.New(t, 0, msg.Headroom)
	if err != nil {
		return err
	}
	var seqn uint32
	if t.Engine().IsHost() {
		// On real goroutines the unlocked read below is a data race; a
		// brief state-lock snapshot keeps the race detector clean. The
		// sim branch stays lock-free so virtual-time charging (and thus
		// byte identity with the seed) is unchanged.
		tcb.locks.lockState(t)
		seqn = tcb.sndNxt
		tcb.locks.unlockState(t)
	} else {
		seqn = tcb.sndNxt // racy read is fine: pure ACK carries no data
	}
	h, err := m.Push(t, HdrLen)
	if err != nil {
		m.Free(t)
		return err
	}
	putHeader(h, tcb.part.LocalPort, tcb.part.RemotePort, seqn, ack, FlagACK, win)
	if tcb.locks.layout == Layout6 {
		tcb.locks.hprep.Acquire(t)
	}
	tcb.finishChecksum(t, m)
	if tcb.locks.layout == Layout6 {
		tcb.locks.hprep.Release(t)
	}
	t.Count(&tcb.p.stats.At(t).SegsOut, 1)
	t.Count(&tcb.p.stats.At(t).AcksOut, 1)
	return tcb.lower.Push(t, m)
}

// retransmit resends the oldest unacknowledged segment (slow-timer
// expiry or fast retransmit). Called without locks held.
func (tcb *TCB) retransmit(t *sim.Thread, fast bool) error {
	tcb.locks.lockState(t)
	tcb.locks.lockRexmtQ(t)
	if len(tcb.rexmtQ) == 0 {
		tcb.locks.unlockRexmtQ(t)
		tcb.locks.unlockState(t)
		return nil
	}
	rs := &tcb.rexmtQ[0]
	rs.rexmt = true
	var m *msg.Message
	if rs.m != nil {
		m = rs.m.Clone(t) // view includes the original header
	}
	seqn, flags, ack, win := rs.seq, rs.flags, tcb.rcvNxt, tcb.rcvWnd
	tcb.locks.unlockRexmtQ(t)

	// Congestion response.
	outstanding := tcb.sndNxt - tcb.sndUna
	half := outstanding / 2
	if half < 2*uint32(tcb.mss) {
		half = 2 * uint32(tcb.mss)
	}
	tcb.sndSsthresh = half
	tcb.sndCwnd = uint32(tcb.mss)
	tcb.rttTime = 0 // Karn: do not time retransmitted sequence space
	if !fast {
		tcb.rxtShift++
		if tcb.rxtShift > maxRexmtCnt {
			tcb.unlockAll(t)
			if m != nil {
				// The clone drawn above will never be transmitted.
				m.Free(t)
			}
			return tcb.dropWithReset(t, "rexmt limit")
		}
	}
	tcb.setTimer(t, timerRexmt, tcb.rexmtTicks())
	tcb.locks.unlockState(t)

	if fast {
		t.Count(&tcb.p.stats.At(t).FastRexmt, 1)
	} else {
		t.Count(&tcb.p.stats.At(t).Rexmt, 1)
	}
	if rec := t.Engine().Rec; rec != nil {
		rec.Retransmit(t.Proc, t.Now(), int64(seqn), fast)
	}
	if m == nil {
		return tcb.sendControl(t, flags, seqn, ack)
	}
	// The clone's view already carries the header from the original
	// transmission; refresh the ack, window and checksum fields. The
	// shared bytes belong to this same segment, so patching them in
	// place is benign.
	h, err := m.Peek(HdrLen)
	if err != nil {
		m.Free(t)
		return err
	}
	putHeader(h, tcb.part.LocalPort, tcb.part.RemotePort, seqn, ack, flags, win)
	tcb.finishChecksum(t, m)
	t.Count(&tcb.p.stats.At(t).SegsOut, 1)
	return tcb.lower.Push(t, m)
}

// dropWithReset aborts the connection.
func (tcb *TCB) dropWithReset(t *sim.Thread, cause string) error {
	tcb.lockAll(t)
	seqn := tcb.sndNxt
	err := tcb.drop(t, cause)
	tcb.unlockAll(t)
	if err != nil {
		return err
	}
	return tcb.sendControl(t, FlagRST, seqn, 0)
}

// rexmtTicks converts the current RTO to slow-timer ticks.
func (tcb *TCB) rexmtTicks() int {
	rto := tcb.srtt + 4*tcb.rttvar
	ticks := int(rto / slowTick)
	if ticks < minRexmt {
		ticks = minRexmt
	}
	shift := tcb.rxtShift
	if shift > 6 {
		shift = 6
	}
	ticks <<= uint(shift)
	if ticks > maxRexmt {
		ticks = maxRexmt
	}
	return ticks
}
