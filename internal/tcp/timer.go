package tcp

import (
	"repro/internal/sim"
	"repro/internal/xmap"
)

// BSD-style protocol timers driven through the x-kernel event manager:
// a 200 ms fast timeout that flushes pending delayed acks and a 500 ms
// slow timeout that decrements the per-connection timer counters. Both
// iterate over every connection with mapForEach, exercising the map
// manager's counting locks exactly as the x-kernel does — an O(n) sweep
// per tick that Config.TimerWheel replaces with the hierarchical tick
// wheel in timerwheel.go.

// pendingAck is one delayed ack the fast timeout decided to flush.
type pendingAck struct {
	tcb *TCB
	ack uint32
	win uint32
}

// expiry is one slow timer that reached zero this tick.
type expiry struct {
	tcb   *TCB
	which int
}

// StartTimers registers the recurring fast and slow timeouts on the
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
		if p.cfg.TimerWheel {
			p.wheelFastTimo(et)
		} else {
			p.fastTimo(et)
		}
		p.wheel.Schedule(et, fast, nil, fastTick)
	}
	var slow func(*sim.Thread, any)
	slow = func(et *sim.Thread, _ any) {
		if p.stopTimers.Get() {
			return
		}
		et.Count(&p.slowTicks, 1)
		if p.cfg.TimerWheel {
			p.wheelSlowTimo(et)
		} else {
			p.slowTimo(et)
		}
		p.wheel.Schedule(et, slow, nil, slowTick)
	}
	p.wheel.Schedule(t, fast, nil, fastTick)
	p.wheel.Schedule(t, slow, nil, slowTick)
}

// StopTimers makes the recurring timeouts cease rescheduling.
func (p *Protocol) StopTimers() { p.stopTimers.Set() }

// fastTimo flushes delayed acks (tcp_fasttimo). The flush list is a
// protocol-owned scratch slice — the timeout runs on the single event
// thread, so reuse is safe and the steady state allocates nothing.
func (p *Protocol) fastTimo(t *sim.Thread) {
	flush := p.flushScratch[:0]
	p.tcbs.ForEach(t, func(_ xmap.Key, v any) bool {
		tcb := v.(*TCB)
		if tcb.delAckPnd.Load() {
			tcb.locks.lockState(t)
			if tcb.delAckPnd.Load() {
				tcb.delAckPnd.Store(false)
				tcb.unacked = 0
				tcb.lastAckSent = tcb.rcvNxt
				flush = append(flush, pendingAck{tcb, tcb.rcvNxt, tcb.rcvWnd})
			}
			tcb.locks.unlockState(t)
		}
		return true
	})
	// Acks go out after the iteration so the map lock is not held
	// across a full downward traversal.
	for _, f := range flush {
		f.tcb.sendAckNow(t, f.ack, f.win)
	}
	for i := range flush {
		flush[i] = pendingAck{}
	}
	p.flushScratch = flush[:0]
}

// slowTimo decrements every connection's timer counters and collects the
// expiries (tcp_slowtimo).
func (p *Protocol) slowTimo(t *sim.Thread) {
	fired := p.firedScratch[:0]
	p.tcbs.ForEach(t, func(_ xmap.Key, v any) bool {
		tcb := v.(*TCB)
		tcb.locks.lockState(t)
		for i := 0; i < nTimers; i++ {
			if tcb.timers[i] > 0 {
				tcb.timers[i]--
				if tcb.timers[i] == 0 {
					fired = append(fired, expiry{tcb, i})
				}
			}
		}
		tcb.locks.unlockState(t)
		return true
	})
	for _, f := range fired {
		if p.timerLog != nil {
			p.timerLog(f.tcb, f.which, p.SlowTicks())
		}
		f.tcb.timeout(t, f.which)
	}
	for i := range fired {
		fired[i] = expiry{}
	}
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
