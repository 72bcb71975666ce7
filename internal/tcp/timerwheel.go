package tcp

import (
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/sim"
)

// Wheel-mode timers (Config.TimerWheel): instead of the BSD full-map
// scans, each connection's slow timers are nodes on a hierarchical tick
// wheel keyed by absolute slow-tick index, and pending delayed acks sit
// on an explicit list. The fast/slow heartbeats keep their exact seed
// cadence (the same recurring event-manager closures), but each
// heartbeat now costs O(expiring timers), not O(connections).
//
// Arming stays cheap on the data path: timerDeadline is authoritative
// and a re-arm that only pushes the deadline out is a plain field write
// — the parked node fires at its old slot, notices the deadline moved,
// and lazily re-arms itself at the remainder. Only deadline-shortening
// re-arms (and first arms) touch the wheel.

// setTimer arms slow timer `which` to expire `ticks` 500 ms slow ticks
// from now, matching the scan-mode counter semantics exactly: a counter
// set to k between slow heartbeats n and n+1 expires on heartbeat n+k.
// Callers hold the state lock. ticks <= 0 disarms.
func (tcb *TCB) setTimer(t *sim.Thread, which, ticks int) {
	if !tcb.p.cfg.TimerWheel {
		tcb.timers[which] = ticks
		return
	}
	if ticks <= 0 {
		tcb.timerDeadline[which] = 0
		return
	}
	d := tcb.p.SlowTicks() + int64(ticks)
	tcb.timerDeadline[which] = d
	if n := &tcb.timerNode[which]; !n.Armed() || n.Deadline() > d {
		tcb.p.tw.Arm(t, n, d)
	}
}

// clearTimer disarms slow timer `which`. The parked wheel node, if any,
// becomes a no-op when it pops (drop cancels nodes eagerly instead).
func (tcb *TCB) clearTimer(which int) {
	tcb.timers[which] = 0
	tcb.timerDeadline[which] = 0
}

// timerArmed reports whether slow timer `which` is pending.
func (tcb *TCB) timerArmed(which int) bool {
	if tcb.p.cfg.TimerWheel {
		return tcb.timerDeadline[which] != 0
	}
	return tcb.timers[which] > 0
}

// queueDelack puts the connection on the wheel-mode pending delayed-ack
// list; the next fast heartbeat flushes it. Scan mode finds pending
// acks by scanning, so this is a no-op there. Callers hold the state
// lock and have just set delAckPnd.
func (tcb *TCB) queueDelack(t *sim.Thread) {
	p := tcb.p
	if !p.cfg.TimerWheel || tcb.onDelackQ {
		return
	}
	tcb.onDelackQ = true
	p.delackLock.Acquire(t)
	p.delackQ = append(p.delackQ, tcb)
	p.delackLock.Release(t)
}

// wheelFastTimo flushes the pending delayed-ack list — O(pending acks)
// where the scan walks every connection.
func (p *Protocol) wheelFastTimo(t *sim.Thread) {
	p.delackLock.Acquire(t)
	q := p.delackQ
	p.delackQ = p.delackScratch[:0]
	p.delackLock.Release(t)

	flush := p.flushScratch[:0]
	for _, tcb := range q {
		tcb.locks.lockState(t)
		tcb.onDelackQ = false
		if tcb.delAckPnd.Load() {
			tcb.delAckPnd.Store(false)
			tcb.unacked = 0
			tcb.lastAckSent = tcb.rcvNxt
			flush = append(flush, pendingAck{tcb, tcb.rcvNxt, tcb.rcvWnd})
		}
		tcb.locks.unlockState(t)
	}
	for i := range q {
		q[i] = nil
	}
	p.delackScratch = q[:0]
	for _, f := range flush {
		f.tcb.sendAckNow(t, f.ack, f.win)
	}
	for i := range flush {
		flush[i] = pendingAck{}
	}
	p.flushScratch = flush[:0]
}

// wheelSlowTimo advances the tick wheel by one slow tick and fires the
// due timers — O(expiring + cascades) where the scan locks every
// connection to decrement its counters.
func (p *Protocol) wheelSlowTimo(t *sim.Thread) {
	tick := p.SlowTicks()
	due := p.tw.Advance(t, tick, p.dueScratch[:0])
	fired := p.firedScratch[:0]
	for _, n := range due {
		tcb := n.Arg.(*TCB)
		which := n.Which
		tcb.locks.lockState(t)
		switch d := tcb.timerDeadline[which]; {
		case d == 0:
			// Disarmed since the node was parked; let it rest.
		case d > tick:
			// The deadline was pushed out while the node was parked;
			// re-arm at the remainder (state -> wheel lock order, as on
			// the arming path).
			p.tw.Arm(t, n, d)
		default:
			tcb.timerDeadline[which] = 0
			fired = append(fired, expiry{tcb, which})
		}
		tcb.locks.unlockState(t)
	}
	for i := range due {
		due[i] = nil
	}
	p.dueScratch = due[:0]
	for _, f := range fired {
		if p.timerLog != nil {
			p.timerLog(f.tcb, f.which, tick)
		}
		f.tcb.timeout(t, f.which)
	}
	for i := range fired {
		fired[i] = expiry{}
	}
	p.firedScratch = fired[:0]
}

// releaseTCB surrenders the protocol's base reference on a reaped
// (dropped and unbound) connection; when in-flight references drain,
// the block lands on the free list. Only the 2MSL reaper calls this —
// a TIME_WAIT connection has no parked senders, so nothing can still
// be blocked on its condition variables.
func (p *Protocol) releaseTCB(t *sim.Thread, tcb *TCB) {
	if !p.cfg.PoolTCBs || tcb.released {
		return
	}
	tcb.released = true
	if tcb.ref.Decr(t) {
		p.recycleTCB(tcb)
	}
}

// recycleTCB free-lists a connection block whose last reference just
// dropped. Host-side only: no virtual time is charged.
func (p *Protocol) recycleTCB(tcb *TCB) {
	if !p.cfg.PoolTCBs {
		return
	}
	p.recycled++
	p.tcbFree = append(p.tcbFree, tcb)
}

// SlowTicks returns the number of slow heartbeats run so far (both
// timer modes count them; wheel deadlines are indices in this series).
func (p *Protocol) SlowTicks() int64 { return atomic.LoadInt64(&p.slowTicks) }

// TickWheel exposes the wheel-mode timer wheel (nil in scan mode).
func (p *Protocol) TickWheel() *event.TickWheel { return p.tw }

// Recycled returns how many connection blocks the free list has
// absorbed.
func (p *Protocol) Recycled() int64 { return p.recycled }
