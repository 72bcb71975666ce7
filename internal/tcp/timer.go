package tcp

import (
	"sync/atomic"

	"repro/internal/sim"
)

// BSD-cadence protocol timers driven through the x-kernel event
// manager: a 200 ms fast heartbeat that flushes the pending delayed-ack
// list and a 500 ms slow heartbeat that advances a hierarchical tick
// wheel holding every armed slow timer, keyed by absolute slow-tick
// index. A heartbeat costs O(pending acks) or O(expiring timers +
// cascades), never O(connections), on both substrates.
//
// Arming stays cheap on the data path: timerDeadline is authoritative
// and a re-arm that only pushes the deadline out is a plain field write
// — the parked node fires at its old slot, notices the deadline moved,
// and lazily re-arms itself at the remainder. Only deadline-shortening
// re-arms (and first arms) touch the wheel. The wheel's link state is
// written under the wheel lock by Advance, so the connection never
// reads it: timerParked, under the state lock like timerDeadline,
// records the tick each node was last armed at (0: not on the wheel).

// pendingAck is one delayed ack the fast heartbeat decided to flush.
type pendingAck struct {
	tcb *TCB
	ack uint32
	win uint32
}

// expiry is one slow timer that came due this tick.
type expiry struct {
	tcb   *TCB
	which int
}

// StartTimers registers the recurring fast and slow heartbeats on the
// protocol's event wheel. Call once after construction.
func (p *Protocol) StartTimers(t *sim.Thread) {
	if p.wheel == nil {
		return
	}
	var fast func(*sim.Thread, any)
	fast = func(et *sim.Thread, _ any) {
		if p.stopTimers.Get() {
			return
		}
		p.fastTimo(et)
		p.wheel.Schedule(et, fast, nil, fastTick)
	}
	var slow func(*sim.Thread, any)
	slow = func(et *sim.Thread, _ any) {
		if p.stopTimers.Get() {
			return
		}
		p.slowTimo(et)
		p.wheel.Schedule(et, slow, nil, slowTick)
	}
	p.wheel.Schedule(t, fast, nil, fastTick)
	p.wheel.Schedule(t, slow, nil, slowTick)
}

// StopTimers makes the recurring heartbeats cease rescheduling.
func (p *Protocol) StopTimers() { p.stopTimers.Set() }

// SlowTicks returns the number of slow heartbeats run so far; timer
// deadlines are indices in this series.
func (p *Protocol) SlowTicks() int64 { return atomic.LoadInt64(&p.slowTicks) }

// setTimer arms slow timer `which` to expire `ticks` 500 ms slow ticks
// from now, with the BSD counter semantics: a timer set to k between
// slow heartbeats n and n+1 expires on heartbeat n+k. Callers hold the
// state lock. ticks <= 0 disarms.
func (tcb *TCB) setTimer(t *sim.Thread, which, ticks int) {
	if ticks <= 0 {
		tcb.clearTimer(which)
		return
	}
	d := tcb.p.SlowTicks() + int64(ticks)
	tcb.timerDeadline[which] = d
	if at := tcb.timerParked[which]; at == 0 || at > d {
		tcb.timerParked[which] = d
		tcb.p.tw.Arm(t, &tcb.timerNode[which], d)
	}
}

// clearTimer disarms slow timer `which`. The parked node, if any,
// becomes a no-op when it pops (drop cancels nodes eagerly instead).
func (tcb *TCB) clearTimer(which int) { tcb.timerDeadline[which] = 0 }

// timerArmed reports whether slow timer `which` is pending.
func (tcb *TCB) timerArmed(which int) bool { return tcb.timerDeadline[which] != 0 }

// queueDelack puts the connection on the pending delayed-ack list; the
// next fast heartbeat flushes it. Callers hold the state lock and have
// just set delAckPnd.
func (tcb *TCB) queueDelack(t *sim.Thread) {
	if tcb.onDelackQ {
		return
	}
	tcb.onDelackQ = true
	p := tcb.p
	p.delackLock.Acquire(t)
	p.delackQ = append(p.delackQ, tcb)
	p.delackLock.Release(t)
}

// fastTimo flushes the pending delayed-ack list (tcp_fasttimo). The
// lists are protocol-owned scratch — the heartbeats run on the single
// event thread, so reuse is safe and the steady state allocates nothing.
func (p *Protocol) fastTimo(t *sim.Thread) {
	p.delackLock.Acquire(t)
	q := p.delackQ
	p.delackQ = p.delackScratch[:0]
	p.delackLock.Release(t)

	flush := p.flushScratch[:0]
	for _, tcb := range q {
		tcb.locks.lockState(t)
		tcb.onDelackQ = false
		if tcb.delAckPnd {
			tcb.delAckPnd = false
			tcb.unacked = 0
			tcb.lastAckSent = tcb.rcvNxt
			flush = append(flush, pendingAck{tcb, tcb.rcvNxt, tcb.rcvWnd})
		}
		tcb.locks.unlockState(t)
	}
	clear(q)
	p.delackScratch = q[:0]
	// Acks go out with no lock held: each is a full downward traversal.
	for _, f := range flush {
		f.tcb.sendAckNow(t, f.ack, f.win)
	}
	clear(flush)
	p.flushScratch = flush[:0]
}

// slowTimo advances the tick wheel by one slow tick and fires the due
// timers (tcp_slowtimo).
func (p *Protocol) slowTimo(t *sim.Thread) {
	t.Count(&p.slowTicks, 1)
	tick := p.SlowTicks()
	if p.tickLog != nil {
		p.tickLog(t, tick)
	}
	due := p.tw.Advance(t, tick, p.dueScratch[:0])
	fired := p.firedScratch[:0]
	for _, n := range due {
		tcb := n.Arg.(*TCB)
		which := n.Which
		tcb.locks.lockState(t)
		tcb.timerParked[which] = 0
		switch d := tcb.timerDeadline[which]; {
		case d == 0:
			// Disarmed since the node was parked; let it rest.
		case d > tick:
			// The deadline was pushed out while the node was parked;
			// re-arm at the remainder (state -> wheel lock order, as on
			// the arming path).
			tcb.timerParked[which] = d
			p.tw.Arm(t, n, d)
		default:
			tcb.timerDeadline[which] = 0
			fired = append(fired, expiry{tcb, which})
		}
		tcb.locks.unlockState(t)
	}
	clear(due)
	p.dueScratch = due[:0]
	for _, f := range fired {
		if p.timerLog != nil {
			p.timerLog(f.tcb, f.which, tick)
		}
		f.tcb.timeout(t, f.which)
	}
	clear(fired)
	p.firedScratch = fired[:0]
}

// timeout handles one expired timer. Called without locks held.
func (tcb *TCB) timeout(t *sim.Thread, which int) {
	switch which {
	case timerRexmt:
		tcb.retransmit(t, false)
	case timerPersist:
		// Window probe: a pure ack solicits a window update from the
		// peer; re-arm while the window stays closed.
		tcb.locks.lockState(t)
		probe := tcb.state == stateEstablished && tcb.sndWnd == 0
		ack, win := tcb.rcvNxt, tcb.rcvWnd
		if probe {
			tcb.setTimer(t, timerPersist, minRexmt)
		}
		tcb.locks.unlockState(t)
		if probe {
			tcb.sendAckNow(t, ack, win)
		}
	case timer2MSL:
		tcb.locks.lockState(t)
		dropped := false
		if tcb.state == stateTimeWait {
			tcb.drop(t, "2MSL expired")
			dropped = true
		}
		tcb.locks.unlockState(t)
		if dropped {
			// The connection is unbound and idle: hand the block to the
			// free list once in-flight references drain.
			tcb.p.releaseTCB(t, tcb)
		}
	case timerKeep:
		// Keepalive is a no-op on the error-free in-memory wire.
	}
}

// releaseTCB surrenders the protocol's base reference on a reaped
// (dropped and unbound) connection; when in-flight references drain,
// the block lands on the free list. Only the 2MSL reaper calls this,
// once per incarnation (its drop leaves no timer to fire again) — a
// TIME_WAIT connection has no parked senders, so nothing can still be
// blocked on its condition variables.
func (p *Protocol) releaseTCB(t *sim.Thread, tcb *TCB) {
	if tcb.ref.Decr(t) {
		p.recycleTCB(tcb)
	}
}

// recycleTCB free-lists a connection block whose last reference just
// dropped — on the reaper's event thread or on the pump thread that was
// still inside input processing, hence freeMu. Host-side only: no
// virtual time is charged.
func (p *Protocol) recycleTCB(tcb *TCB) {
	p.freeMu.Lock()
	p.tcbFree = append(p.tcbFree, tcb)
	p.freeMu.Unlock()
}
