package tcp

// Test harness: a protocol holding idle established connections without
// a wire or a peer, so timer and input tests drive single heartbeats and
// segments directly.

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

// NewBench builds a protocol with n idle established connections bound
// in the demux map, skipping handshakes. The protocol's event wheel is
// nil — the caller drives heartbeats explicitly.
func NewBench(t *sim.Thread, cfg Config, alloc *msg.Allocator, n int) (*Protocol, []*TCB) {
	p := New(cfg, benchIP{}, alloc, nil)
	tcbs := make([]*TCB, n)
	for i := range tcbs {
		part := xkernel.Part{
			LocalIP:    xkernel.IPAddr{10, 0, 0, 1},
			RemoteIP:   xkernel.IPAddr{10, 0, 0, 2},
			LocalPort:  uint16(1000 + i),
			RemotePort: uint16(2000 + i),
		}
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

// BenchArmTimer arms slow timer `which` to fire `ticks` slow heartbeats
// out (ticks <= 0 disarms), taking the state lock setTimer needs.
func (tcb *TCB) BenchArmTimer(t *sim.Thread, which, ticks int) {
	tcb.locks.lockState(t)
	tcb.setTimer(t, which, ticks)
	tcb.locks.unlockState(t)
}
