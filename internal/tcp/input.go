package tcp

import (
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Receive-side processing (tcp_input), Net/2-structured: Van Jacobson
// header prediction first, full processing otherwise. The connection
// state lock is taken here; under contention with unfair locks, threads
// (and thus packets) are reordered at this acquisition point — the
// Section 4.1 phenomenon.
//
// Ordering above TCP (Section 4.2): when ticketing is enabled, the
// receiving thread draws an up-ticket *before* releasing the connection
// state lock; the message carries it to the application, which waits for
// its ticket at the point where it requires order.

// input runs TCP input processing for one segment. m's header has been
// stripped; sg holds the parsed fields.
func (tcb *TCB) input(t *sim.Thread, sg seg, m *msg.Message) error {
	st := &t.Engine().C.Stack
	cfg := &tcb.p.cfg
	p := tcb.p
	t.Count(&p.stats.At(t).SegsIn, 1)

	tcb.locks.lockState(t)

	// Instrumentation for Table 1: a data segment whose sequence number
	// is not the next expected arrived out of order at TCP.
	if sg.dlen > 0 && tcb.state == stateEstablished {
		t.Count(&tcb.dataIn, 1)
		t.Count(&p.stats.At(t).DataSegsIn, 1)
		if sg.seq != tcb.rcvNxt {
			t.Count(&tcb.oooIn, 1)
			t.Count(&p.stats.At(t).OOOSegsIn, 1)
			if rec := t.Engine().Rec; rec != nil {
				rec.Record(t.Proc, trace.Event{TS: t.Now(), Kind: trace.EvOOO, Arg: int64(sg.seq), Arg2: int64(tcb.rcvNxt)})
			}
		}
	}
	if cfg.AssumeInOrder && sg.dlen > 0 && tcb.state == stateEstablished &&
		sg.flags&(FlagSYN|FlagFIN|FlagRST) == 0 {
		// The Figure 10 "upper bound" TCP: treat every packet as if it
		// were in order.
		sg.seq = tcb.rcvNxt
	}

	switch tcb.state {
	case stateClosed:
		tcb.locks.unlockState(t)
		m.Free(t)
		return ErrClosed
	case stateListen:
		return tcb.inputListen(t, sg, m)
	case stateSynSent:
		return tcb.inputSynSent(t, sg, m)
	}

	if sg.flags&FlagRST != 0 {
		err := tcb.drop(t, "reset by peer")
		tcb.estCond.Broadcast(t)
		tcb.notFull.Broadcast(t)
		tcb.locks.unlockState(t)
		m.Free(t)
		return err
	}

	// SYN_RCVD: the ACK of our SYN-ACK completes establishment; fall
	// through in case data rides with it.
	if tcb.state == stateSynRcvd && sg.flags&FlagACK != 0 &&
		seqGEQ(sg.ack, tcb.iss+1) && seqLEQ(sg.ack, tcb.sndMax) {
		tcb.state = stateEstablished
		tcb.sndUna = sg.ack
		tcb.sndWnd = sg.win
		tcb.estCond.Broadcast(t)
	}

	// ---- Header prediction (Section 4.1: dependent on in-order
	// arrival; out-of-order packets fall through to the slow path) ----
	if !cfg.NoHeaderPrediction &&
		tcb.state == stateEstablished &&
		sg.flags&(FlagSYN|FlagFIN|FlagRST) == 0 &&
		sg.flags&FlagACK != 0 &&
		sg.seq == tcb.rcvNxt &&
		sg.win == tcb.sndWnd &&
		len(tcb.reassQ) == 0 {

		if sg.dlen == 0 &&
			seqGT(sg.ack, tcb.sndUna) && seqLEQ(sg.ack, tcb.sndMax) {
			// Predicted pure ACK.
			t.ChargeRand(st.TCPAckLocked)
			t.Count(&p.stats.At(t).AcksIn, 1)
			t.Count(&p.stats.At(t).Predicted, 1)
			if rec := t.Engine().Rec; rec != nil {
				rec.Record(t.Proc, trace.Event{TS: t.Now(), Kind: trace.EvPredictHit, Arg: int64(sg.ack)})
			}
			tcb.processAck(t, sg)
			tcb.notFull.Broadcast(t)
			tcb.locks.unlockState(t)
			m.Free(t)
			return nil
		}
		if sg.dlen > 0 && sg.ack == tcb.sndUna &&
			uint32(sg.dlen) <= tcb.rcvWnd {
			// Predicted in-order data. A GRO-merged frame takes this
			// path as a single segment: one state-lock acquisition and
			// one prediction hit covering all coalesced bytes.
			t.ChargeRand(st.TCPRecvFast)
			if rec := t.Engine().Rec; rec != nil {
				rec.Record(t.Proc, trace.Event{TS: t.Now(), Kind: trace.EvPredictHit, Arg: int64(sg.seq)})
			}
			tcb.rcvNxt += uint32(sg.dlen)
			tcb.rcvBytes += int64(sg.dlen)
			dlen := sg.dlen
			needAck, ackVal, win := tcb.ackPolicy(t)
			if cfg.Ticketing {
				m.Ticket = tcb.upSeq.Ticket(t)
				m.Ticketed = true
			}
			tcb.locks.unlockState(t)
			if needAck {
				if err := tcb.sendAckNow(t, ackVal, win); err != nil {
					m.Free(t)
					return err
				}
			}
			if err := tcb.up.Receive(t, m); err != nil {
				return err
			}
			// Accounted only after the fallible ack send and delivery:
			// a failed step must not count as delivered traffic or the
			// counters drift from the sink under fault injection.
			t.Count(&p.stats.At(t).Predicted, 1)
			t.Count(&p.stats.At(t).BytesIn, int64(dlen))
			t.Count(&p.stats.At(t).Delivered, 1)
			return nil
		}
	}

	// ---- Slow path ----
	if rec := t.Engine().Rec; rec != nil {
		rec.Record(t.Proc, trace.Event{TS: t.Now(), Kind: trace.EvPredictMiss, Arg: int64(sg.seq)})
	}
	t.ChargeRand(st.TCPRecvFast)
	t.ChargeRand(st.TCPRecvSlow)

	var fastRexmt bool
	if sg.flags&FlagACK != 0 {
		switch {
		case seqGT(sg.ack, tcb.sndMax):
			// Ack of data we never sent: ignore (ack back in full
			// processing would loop against a broken peer; drop).
		case seqLEQ(sg.ack, tcb.sndUna):
			// Duplicate ack.
			if sg.dlen == 0 && sg.win == tcb.sndWnd && len(tcb.rexmtQ) > 0 {
				tcb.dupAcks++
				if tcb.dupAcks == 3 {
					fastRexmt = true
					tcb.dupAcks = 0
				}
			}
		default:
			t.Count(&p.stats.At(t).AcksIn, 1)
			tcb.dupAcks = 0
			tcb.processAck(t, sg)
			tcb.notFull.Broadcast(t)
		}
		if seqGEQ(sg.ack, tcb.sndUna) {
			tcb.sndWnd = sg.win
		}
	}

	// Segments to hand up once the state lock is released: the arriving
	// one, or what a reassembly drain made contiguous. The stack array
	// holds one per processor of the paper's largest machine; a longer
	// drain spills to the heap.
	var deliverBuf [8]*msg.Message
	deliver := deliverBuf[:0]
	needAckNow := false

	if sg.dlen > 0 {
		// Trim data already received.
		if seqLT(sg.seq, tcb.rcvNxt) {
			dup := int(tcb.rcvNxt - sg.seq)
			if dup >= sg.dlen {
				// Entirely duplicate: ack and drop.
				needAckNow = true
				m.Free(t)
				m = nil
			} else {
				if err := m.TrimFront(t, dup); err == nil {
					trimSegs(m, sg.dlen, dup)
					sg.seq += uint32(dup)
					sg.dlen -= dup
				}
			}
		}
		if m != nil && uint32(sg.dlen) > tcb.rcvWnd {
			// Beyond our window: trim tail.
			over := sg.dlen - int(tcb.rcvWnd)
			if err := m.TrimBack(t, over); err == nil {
				trimSegs(m, sg.dlen, over)
				sg.dlen -= over
			} else {
				// Untrimmable tail: delivering (or parking) the segment
				// with sg.dlen still oversized would overrun the
				// advertised window and corrupt reassembly accounting.
				// Drop the whole segment and ack so the peer retransmits
				// from our edge. Its FIN, if any, rides sequence space we
				// just refused, so it must not be processed either.
				t.Count(&p.stats.At(t).Dropped, 1)
				needAckNow = true
				sg.flags &^= FlagFIN
				m.Free(t)
				m = nil
			}
		}
		if m != nil {
			if sg.seq == tcb.rcvNxt && len(tcb.reassQ) == 0 {
				tcb.rcvNxt += uint32(sg.dlen)
				tcb.rcvBytes += int64(sg.dlen)
				t.Count(&p.stats.At(t).BytesIn, int64(sg.dlen))
				deliver = append(deliver, m)
				m = nil
				tcb.unacked++
				if tcb.unacked >= cfg.AckEvery {
					needAckNow = true
				} else {
					tcb.delAckPnd = true
					tcb.queueDelack(t)
				}
			} else {
				// Out of order: park on the reassembly queue and ack
				// immediately (duplicate ack tells the sender where we
				// are).
				tcb.locks.lockReass(t)
				t.ChargeRand(st.TCPReassIns)
				tcb.insertReass(t, sg, m)
				tcb.locks.unlockReass(t)
				m = nil
				needAckNow = true
				// Drain whatever became contiguous. Drained entries are
				// copied down, not resliced away, so the queue keeps its
				// backing array (pooled reassembly nodes).
				tcb.locks.lockReass(t)
				drained := 0
				for drained < len(tcb.reassQ) && tcb.reassQ[drained].seq == tcb.rcvNxt {
					rs := tcb.reassQ[drained]
					drained++
					t.ChargeRand(st.TCPReassDrain)
					tcb.rcvNxt += uint32(rs.dlen)
					tcb.rcvBytes += int64(rs.dlen)
					t.Count(&p.stats.At(t).BytesIn, int64(rs.dlen))
					if rs.m != nil {
						deliver = append(deliver, rs.m)
					}
					if rs.fin {
						tcb.finRcvd = true
					}
				}
				if drained > 0 {
					q := tcb.reassQ
					n := copy(q, q[drained:])
					for i := n; i < len(q); i++ {
						q[i] = reassSeg{}
					}
					tcb.reassQ = q[:n]
				}
				tcb.locks.unlockReass(t)
			}
		}
	}

	// FIN processing (in-order only).
	finNow := sg.flags&FlagFIN != 0 && sg.seq+uint32(sg.dlen) == tcb.rcvNxt && m == nil ||
		sg.flags&FlagFIN != 0 && sg.dlen == 0 && sg.seq == tcb.rcvNxt
	if finNow || tcb.finRcvd {
		tcb.finRcvd = false
		tcb.rcvNxt++
		needAckNow = true
		switch tcb.state {
		case stateEstablished, stateSynRcvd:
			tcb.state = stateCloseWait
		case stateFinWait1:
			tcb.state = stateTimeWait // simplification of CLOSING
			tcb.setTimer(t, timer2MSL, msl2Ticks)
		case stateFinWait2:
			tcb.state = stateTimeWait
			tcb.setTimer(t, timer2MSL, msl2Ticks)
		}
	}

	if cfg.Ticketing {
		for _, dm := range deliver {
			dm.Ticket = tcb.upSeq.Ticket(t)
			dm.Ticketed = true
		}
	}
	ackVal, win := tcb.rcvNxt, tcb.rcvWnd
	if needAckNow {
		tcb.unacked = 0
		tcb.delAckPnd = false
		tcb.lastAckSent = ackVal
	}
	tcb.locks.unlockState(t)

	if m != nil {
		// Data fully consumed by trimming or a pure control segment.
		m.Free(t)
	}
	if fastRexmt {
		if err := tcb.retransmit(t, true); err != nil {
			return err
		}
	}
	if needAckNow {
		if err := tcb.sendAckNow(t, ackVal, win); err != nil {
			return err
		}
	}
	for _, dm := range deliver {
		if err := tcb.up.Receive(t, dm); err != nil {
			return err
		}
		t.Count(&p.stats.At(t).Delivered, 1)
	}
	return nil
}

// trimSegs keeps a GRO-merged segment's count of wire segments in step
// with a trim of n of its dlen bytes: a merged frame is equal segments,
// so a trim of whole ones leaves the rest.
func trimSegs(m *msg.Message, dlen, n int) {
	if segs := m.SegCount(); segs > 1 && dlen >= segs {
		m.Segs = uint16(segs - n/(dlen/segs))
	}
}

// ackPolicy implements delayed acks: acknowledge every AckEvery-th data
// segment, otherwise leave a delayed ack pending for the fast timer.
// Called with the state lock held; returns whether to ack now plus the
// snapshot to ack with.
func (tcb *TCB) ackPolicy(t *sim.Thread) (bool, uint32, uint32) {
	tcb.unacked++
	if tcb.unacked >= tcb.p.cfg.AckEvery {
		tcb.unacked = 0
		tcb.delAckPnd = false
		tcb.lastAckSent = tcb.rcvNxt
		return true, tcb.rcvNxt, tcb.rcvWnd
	}
	tcb.delAckPnd = true
	tcb.queueDelack(t)
	return false, 0, 0
}

// insertReass places an out-of-order segment into the sorted reassembly
// queue, dropping exact duplicates. Called with the reassembly lock
// held.
func (tcb *TCB) insertReass(t *sim.Thread, sg seg, m *msg.Message) {
	fin := sg.flags&FlagFIN != 0
	i := 0
	for ; i < len(tcb.reassQ); i++ {
		if seqLEQ(sg.seq, tcb.reassQ[i].seq) {
			break
		}
	}
	if i < len(tcb.reassQ) && tcb.reassQ[i].seq == sg.seq {
		// Duplicate of a queued segment (a retransmission raced the
		// original): drop the copy.
		m.Free(t)
		return
	}
	tcb.reassQ = append(tcb.reassQ, reassSeg{})
	copy(tcb.reassQ[i+1:], tcb.reassQ[i:])
	tcb.reassQ[i] = reassSeg{seq: sg.seq, dlen: sg.dlen, fin: fin, m: m}
}

// inputListen handles a segment arriving for a listening TCB. Called
// with the state lock held; consumes it.
func (tcb *TCB) inputListen(t *sim.Thread, sg seg, m *msg.Message) error {
	if sg.flags&FlagSYN == 0 || sg.flags&FlagRST != 0 {
		tcb.locks.unlockState(t)
		m.Free(t)
		return ErrNoListen
	}
	tcb.irs = sg.seq
	tcb.rcvNxt = sg.seq + 1
	tcb.lastAckSent = tcb.rcvNxt
	tcb.iss = tcb.p.nextISS(t)
	tcb.sndUna = tcb.iss
	tcb.sndNxt = tcb.iss + 1
	tcb.sndMax = tcb.sndNxt
	tcb.sndWnd = sg.win
	tcb.sndCwnd = 2 * uint32(tcb.mss)
	tcb.state = stateSynRcvd
	iss, ack := tcb.iss, tcb.rcvNxt
	tcb.locks.unlockState(t)
	m.Free(t)
	return tcb.sendControl(t, FlagSYN|FlagACK, iss, ack)
}

// inputSynSent handles the SYN-ACK of an active open. Called with the
// state lock held; consumes it.
func (tcb *TCB) inputSynSent(t *sim.Thread, sg seg, m *msg.Message) error {
	if sg.flags&FlagRST != 0 {
		err := tcb.drop(t, "connection refused")
		tcb.estCond.Broadcast(t)
		tcb.locks.unlockState(t)
		m.Free(t)
		return err
	}
	if sg.flags&(FlagSYN|FlagACK) != FlagSYN|FlagACK ||
		sg.ack != tcb.iss+1 {
		tcb.locks.unlockState(t)
		m.Free(t)
		return ErrNoListen
	}
	tcb.irs = sg.seq
	tcb.rcvNxt = sg.seq + 1
	tcb.lastAckSent = tcb.rcvNxt
	tcb.sndUna = sg.ack
	tcb.sndNxt = seqMax(tcb.sndNxt, sg.ack)
	tcb.sndWnd = sg.win
	tcb.sndCwnd = 2 * uint32(tcb.mss)
	tcb.state = stateEstablished
	tcb.estCond.Broadcast(t)
	ack := tcb.rcvNxt
	tcb.locks.unlockState(t)
	m.Free(t)
	return tcb.sendControl(t, FlagACK, tcb.sndNxt, ack)
}

// processAck absorbs an acknowledgement: retransmission queue cleanup,
// RTT sampling, congestion window opening, FIN-ack state transitions.
// Called with the state lock held.
func (tcb *TCB) processAck(t *sim.Thread, sg seg) {
	tcb.sndUna = sg.ack
	if seqLT(tcb.sndNxt, tcb.sndUna) {
		tcb.sndNxt = tcb.sndUna
	}
	// RTT sample (Karn-guarded by retransmit zeroing rttTime).
	if tcb.rttTime != 0 && seqGT(sg.ack, tcb.rttSeq) {
		tcb.updateRTT(t.Now() - tcb.rttTime)
		tcb.rttTime = 0
	}
	tcb.rxtShift = 0
	// Congestion window: slow start below ssthresh, linear above.
	mss := uint32(tcb.mss)
	if tcb.sndCwnd < tcb.sndSsthresh {
		tcb.sndCwnd += mss
	} else {
		inc := mss * mss / tcb.sndCwnd
		if inc == 0 {
			inc = 1
		}
		tcb.sndCwnd += inc
	}
	if tcb.sndCwnd > tcb.p.cfg.Window {
		tcb.sndCwnd = tcb.p.cfg.Window
	}
	// Drop fully acknowledged segments from the retransmission queue.
	// Acked entries are copied down rather than resliced off the front
	// so the slice keeps its backing array — the queue's nodes stay
	// pooled for the connection's lifetime.
	tcb.locks.lockRexmtQ(t)
	acked := 0
	for ; acked < len(tcb.rexmtQ); acked++ {
		rs := &tcb.rexmtQ[acked]
		end := rs.seq + uint32(rs.dlen)
		if rs.dlen == 0 {
			end = rs.seq + 1 // SYN/FIN consume one sequence number
		}
		if !seqLEQ(end, tcb.sndUna) {
			break
		}
		if rs.m != nil {
			rs.m.Free(t)
		}
	}
	if acked > 0 {
		q := tcb.rexmtQ
		n := copy(q, q[acked:])
		for i := n; i < len(q); i++ {
			q[i] = rexmtSeg{}
		}
		tcb.rexmtQ = q[:n]
	}
	tcb.locks.unlockRexmtQ(t)
	if tcb.sndUna == tcb.sndMax {
		tcb.clearTimer(timerRexmt)
	} else {
		tcb.setTimer(t, timerRexmt, tcb.rexmtTicks())
	}
	// Our FIN acknowledged?
	switch tcb.state {
	case stateFinWait1:
		if tcb.sndUna == tcb.sndNxt {
			tcb.state = stateFinWait2
		}
	case stateLastAck:
		if tcb.sndUna == tcb.sndNxt {
			tcb.drop(t, "closed")
		}
	}
}

// updateRTT runs the Jacobson/Karels estimator in virtual nanoseconds.
func (tcb *TCB) updateRTT(sample int64) {
	if tcb.srtt == 0 {
		tcb.srtt = sample
		tcb.rttvar = sample / 2
		return
	}
	delta := sample - tcb.srtt
	tcb.srtt += delta / 8
	if delta < 0 {
		delta = -delta
	}
	tcb.rttvar += (delta - tcb.rttvar) / 4
}
