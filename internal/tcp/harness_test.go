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

// benchSink discards deliveries.
type benchSink struct{}

func (benchSink) Receive(t *sim.Thread, m *msg.Message) error { m.Free(t); return nil }

// NewBench builds a protocol with n idle established connections bound
// in the demux map, skipping handshakes. The protocol's event wheel is
// nil — the caller drives heartbeats explicitly.
func NewBench(t *sim.Thread, cfg Config, alloc *msg.Allocator, n int) (*Protocol, []*TCB) {
	// A wire with no peer: every frame pushed into it (the pure acks
	// timer flushes send) is freed at once.
	ip := &wireSession{w: &wire{}, src: xkernel.IPAddr{10, 0, 0, 1}, dst: xkernel.IPAddr{10, 0, 0, 2}, mss: 1460}
	p := New(cfg, ip, alloc, nil)
	tcbs := make([]*TCB, n)
	for i := range tcbs {
		part := xkernel.Part{
			LocalIP:    xkernel.IPAddr{10, 0, 0, 1},
			RemoteIP:   xkernel.IPAddr{10, 0, 0, 2},
			LocalPort:  uint16(1000 + i),
			RemotePort: uint16(2000 + i),
		}
		tcb := newTCB(p, part, ip, benchSink{})
		tcb.state = stateEstablished
		tcb.iss = 1
		tcb.sndUna, tcb.sndNxt, tcb.sndMax = 1, 1, 1
		tcb.rcvNxt, tcb.lastAckSent = 1, 1
		if err := p.tcbs.Bind(t, tcb); err != nil {
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
