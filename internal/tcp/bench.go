package tcp

// Host microbenchmark support (internal/hostbench): build a protocol
// holding many idle bound connections without a wire or a peer, and
// drive single timer heartbeats directly. The micros compare the host
// cost of the scan and wheel timer architectures — virtual time is not
// the quantity under test here.

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
)

// benchIP is a sink IP layer: every frame pushed into it is freed
// immediately, so pure acks sent by timer flushes recycle through the
// message allocator without a peer.
type benchIP struct{}

func (benchIP) Open(t *sim.Thread, dst xkernel.IPAddr, proto uint8) (IPSession, error) {
	return benchSession{}, nil
}

type benchSession struct{}

func (benchSession) Push(t *sim.Thread, m *msg.Message) error { m.Free(t); return nil }
func (benchSession) Close(t *sim.Thread) error                { return nil }
func (benchSession) Src() xkernel.IPAddr                      { return xkernel.IPAddr{10, 0, 0, 1} }
func (benchSession) Dst() xkernel.IPAddr                      { return xkernel.IPAddr{10, 0, 0, 2} }
func (benchSession) MSS() int                                 { return 1460 }

// benchSink discards deliveries.
type benchSink struct{}

func (benchSink) Receive(t *sim.Thread, m *msg.Message) error { m.Free(t); return nil }

// benchPart names connection i with a unique port pair. Local ports are
// distinct for i < 65536, so demux keys never collide on the ladder
// sizes the micros use.
func benchPart(i int) xkernel.Part {
	return xkernel.Part{
		LocalIP:    xkernel.IPAddr{10, 0, 0, 1},
		RemoteIP:   xkernel.IPAddr{10, 0, 0, 2},
		LocalPort:  uint16(1000 + i),
		RemotePort: uint16(2000 + i + i>>16),
	}
}

// NewBench builds a protocol with n idle established connections bound
// in the demux map, skipping handshakes: the connections exist only so
// the timer heartbeats have a population to cover. The protocol's event
// wheel is nil — the caller drives heartbeats explicitly with
// BenchSlowTick / BenchFastTick.
func NewBench(t *sim.Thread, cfg Config, alloc *msg.Allocator, n int) (*Protocol, []*TCB) {
	if n > 65536 {
		panic(fmt.Sprintf("tcp.NewBench: %d connections overflow the port scheme", n))
	}
	p := New(cfg, benchIP{}, alloc, nil)
	tcbs := make([]*TCB, n)
	for i := range tcbs {
		part := benchPart(i)
		tcb := newTCB(p, part, benchSession{}, benchSink{})
		tcb.state = stateEstablished
		tcb.iss = 1
		tcb.sndUna, tcb.sndNxt, tcb.sndMax = 1, 1, 1
		tcb.rcvNxt, tcb.lastAckSent = 1, 1
		if err := p.tcbs.Bind(t, tcbKey(part), tcb); err != nil {
			panic(fmt.Sprintf("tcp.NewBench: bind %d: %v", i, err))
		}
		tcbs[i] = tcb
	}
	return p, tcbs
}

// BenchSlowTick runs one slow heartbeat through whichever timer
// architecture the config selects, exactly as the recurring event would.
func (p *Protocol) BenchSlowTick(t *sim.Thread) {
	t.Count(&p.slowTicks, 1)
	if p.cfg.TimerWheel {
		p.wheelSlowTimo(t)
	} else {
		p.slowTimo(t)
	}
}

// BenchFastTick runs one fast heartbeat (delayed-ack flush).
func (p *Protocol) BenchFastTick(t *sim.Thread) {
	if p.cfg.TimerWheel {
		p.wheelFastTimo(t)
	} else {
		p.fastTimo(t)
	}
}

// BenchMarkDelack flags the connection as owing a delayed ack, as input
// processing would after absorbing a data segment, so the next fast
// heartbeat flushes it.
func (tcb *TCB) BenchMarkDelack(t *sim.Thread) {
	tcb.locks.lockState(t)
	tcb.delAckPnd.Store(true)
	tcb.queueDelack(t)
	tcb.locks.unlockState(t)
}

// BenchArmTimer arms slow timer `which` to fire `ticks` slow heartbeats
// out, through the architecture-dispatching setTimer.
func (tcb *TCB) BenchArmTimer(t *sim.Thread, which, ticks int) {
	tcb.locks.lockState(t)
	tcb.setTimer(t, which, ticks)
	tcb.locks.unlockState(t)
}

// BenchRelease hands an unbound connection block to the free list (pool
// mode), as the 2MSL reaper does. The caller must not reuse tcb after.
func (p *Protocol) BenchRelease(t *sim.Thread, tcb *TCB) {
	p.releaseTCB(t, tcb)
}

// BenchNewTCB creates (or recycles, in pool mode) an unbound connection
// block — the allocation half of the churn the free list absorbs.
func (p *Protocol) BenchNewTCB(part xkernel.Part) *TCB {
	return newTCB(p, part, benchSession{}, benchSink{})
}

// TimerWhichRexmt exposes the retransmit timer index for bench/test arming.
const TimerWhichRexmt = timerRexmt

// TimerWhichKeep exposes the keepalive timer index (its expiry is a
// no-op, so idle-population micros can arm it without side effects).
const TimerWhichKeep = timerKeep
