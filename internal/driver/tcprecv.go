package driver

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chksum"
	"repro/internal/event"
	"repro/internal/ip"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/xkernel"
)

// SimTCPReceiver is the simulated TCP receiver that sits below the FDDI
// layer in send-side tests (Figure 1 of the paper). It consumes data
// segments as fast as possible and generates acknowledgement packets for
// packets sent by the actual TCP sender. The driver acknowledges every
// other packet, mimicking the behaviour of Net/2 TCP when communicating
// with itself as a peer, and borrows the stack of the calling thread to
// send an acknowledgement back up. It also performs its role in setting
// up connections, and measures the percentage of packets that were
// misordered on the "wire" (the Section 4.1 send-side probe).
type SimTCPReceiver struct {
	up    xkernel.Demuxer
	alloc *msg.Allocator

	// Window is the flow-control window the simulated peer advertises
	// (32-bit; defaults to 4 MB).
	Window uint32
	// AckEvery acknowledges every n-th data segment (default 2).
	AckEvery int
	// Strict enables exact cumulative acknowledgement: the peer acks
	// only contiguous data, parks out-of-order ranges, verifies
	// checksums (dropping corrupt frames as loss), and answers every
	// gap arrival with an immediate duplicate ack. Required when a
	// fault wire can damage frames — the fast-path maxEnd shortcut
	// below would otherwise acknowledge data that never arrived,
	// hiding the loss from the real sender's recovery machinery.
	Strict bool

	ring  sim.Lock
	conns []*simRecvConn // indexed by connection

	// Aggregate counters (Thread.Count: TX runs on whichever pump
	// thread carries the frame, concurrently on the host backend, and
	// measurement snapshots read mid-run).
	pkts     int64
	bytes    int64
	wireSegs int64
	wireOOO  int64
	badSum   int64

	stopFlush sim.Flag

	// ackTmpl is every connection's acknowledgement frame (peer ->
	// sender); each copy gets its connection's port pair. Last, so no
	// field the sending threads share moved for it.
	ackTmpl []byte
}

// simRange is a parked out-of-order byte range [s, e).
type simRange struct{ s, e uint32 }

type simRecvConn struct {
	// Port pair from the real sender's perspective.
	sport, dport uint16
	iss          uint32

	// mu guards the mutable fields below. On the host backend,
	// concurrent pump threads (and the ack-flush event thread) race on
	// them; under the sim engine the lock is uncontended and charges no
	// virtual time. It is never held across inject — an injected
	// SYN-ACK re-enters TX on the same call stack.
	mu sync.Mutex

	maxEnd     uint32 // cumulative ack point
	lastEnd    uint32 // wire-order probe
	started    bool
	unacked    int
	pendingAck bool
	ranges     []simRange // Strict: sorted OOO ranges beyond maxEnd
}

// NewSimTCPReceiver builds the driver with conns preconfigured
// connections (connection i: LocalPort(i) -> PeerPort(i)).
func NewSimTCPReceiver(alloc *msg.Allocator, conns int) *SimTCPReceiver {
	d := &SimTCPReceiver{
		alloc:    alloc,
		Window:   4 << 20,
		AckEvery: 2,
	}
	d.ring.Name = "ring:tcp-recv"
	d.ackTmpl = tcpTemplate(0, HostPeer, HostLocal, PeerPort(0), LocalPort(0), d.Window)
	for i := 0; i < conns; i++ {
		d.conns = append(d.conns, &simRecvConn{
			sport: LocalPort(i),
			dport: PeerPort(i),
			iss:   uint32(900000 + i*100000),
		})
	}
	return d
}

// SetUpper connects the driver to the MAC layer above it.
func (d *SimTCPReceiver) SetUpper(up xkernel.Demuxer) { d.up = up }

// Bytes returns the payload bytes consumed — the send-side throughput
// measurement point.
func (d *SimTCPReceiver) Bytes() int64 { return atomic.LoadInt64(&d.bytes) }

// Packets returns the data segments consumed.
func (d *SimTCPReceiver) Packets() int64 { return atomic.LoadInt64(&d.pkts) }

// WireOrder returns (misordered, total) data segments as seen at the
// driver: packets that passed each other between TCP and the wire.
func (d *SimTCPReceiver) WireOrder() (int64, int64) {
	return atomic.LoadInt64(&d.wireOOO), atomic.LoadInt64(&d.wireSegs)
}

// TX consumes one outbound frame and reacts as the remote TCP would.
// The adaptor ring serializes per-frame work under the driver lock.
func (d *SimTCPReceiver) TX(t *sim.Thread, m *msg.Message) error {
	st := &t.Engine().C.Stack
	d.ring.Acquire(t)
	t.ChargeRand(st.DriverRing)
	d.ring.Release(t)
	t.ChargeRand(st.DriverTX)
	frame, err := m.Peek(m.Len())
	if err != nil {
		m.Free(t)
		return err
	}
	sg, ok := parseFrameTCP(frame)
	if !ok {
		m.Free(t)
		return fmt.Errorf("driver: non-TCP frame at SimTCPReceiver")
	}
	// The stack sends from connection i's local port to its peer port.
	conn := connOf(sg.SPort, sg.DPort)
	if conn >= len(d.conns) || d.conns[conn].sport != sg.SPort || d.conns[conn].dport != sg.DPort {
		m.Free(t)
		return fmt.Errorf("driver: unknown connection %d->%d", sg.SPort, sg.DPort)
	}
	c := d.conns[conn]
	// In strict mode, verify any nonzero checksum before the frame goes
	// away: a corrupt frame is treated exactly like a lost one. (Zero
	// means the sender did not checksum; the drivers' templates leave it
	// zero by design.)
	if d.Strict && len(frame) >= tcpFrameHdr &&
		(frame[offTCP+18] != 0 || frame[offTCP+19] != 0) &&
		!chksum.Verify(HostLocal, HostPeer, ip.ProtoTCP, frame[offTCP:]) {
		t.Count(&d.badSum, 1)
		m.Free(t)
		return nil
	}
	born := m.Born
	m.Free(t)

	switch {
	case sg.Flags&tcp.FlagSYN != 0 && sg.Flags&tcp.FlagACK == 0:
		// Active open from the real TCP: complete the handshake.
		c.mu.Lock()
		c.maxEnd = sg.Seq + 1
		c.lastEnd = c.maxEnd
		c.started = true
		ack := c.maxEnd
		c.mu.Unlock()
		return d.inject(t, c, tcp.FlagSYN|tcp.FlagACK, c.iss, ack)

	case sg.Flags&tcp.FlagFIN != 0:
		end := sg.Seq + uint32(sg.DLen) + 1
		c.mu.Lock()
		if int32(end-c.maxEnd) > 0 {
			c.maxEnd = end
		}
		ack := c.maxEnd
		c.mu.Unlock()
		return d.inject(t, c, tcp.FlagACK, c.iss+1, ack)

	case sg.DLen > 0:
		end := sg.Seq + uint32(sg.DLen)
		t.Count(&d.wireSegs, 1)
		c.mu.Lock()
		if int32(sg.Seq-c.lastEnd) < 0 {
			// This segment was passed by a later one below TCP
			// ("threads pass each other ... before reaching the FDDI
			// driver", Section 4.1).
			t.Count(&d.wireOOO, 1)
		} else {
			c.lastEnd = end
		}
		if d.Strict {
			c.mu.Unlock()
			return d.strictData(t, c, sg.Seq, end, born)
		}
		if int32(end-c.maxEnd) > 0 {
			c.maxEnd = end
		}
		t.Count(&d.pkts, 1)
		t.Count(&d.bytes, int64(sg.DLen))
		if rec := t.Engine().Rec; rec != nil {
			rec.Deliver(t.Proc, t.Now(), born)
		}
		c.unacked++
		doAck := false
		if c.unacked >= d.AckEvery {
			c.unacked = 0
			c.pendingAck = false
			doAck = true
		} else {
			c.pendingAck = true
		}
		ack := c.maxEnd
		c.mu.Unlock()
		if doAck {
			return d.inject(t, c, tcp.FlagACK, c.iss+1, ack)
		}
		return nil

	default:
		// Pure ack from the sender (of our SYN-ACK or FIN): absorb.
		return nil
	}
}

// strictData is the Strict-mode data path: exact cumulative
// acknowledgement. Bytes and packets count only once per unique byte
// of payload; gaps park in a sorted range list; every duplicate or
// out-of-order arrival triggers an immediate duplicate ack so the real
// sender's fast-retransmit counter can fire.
func (d *SimTCPReceiver) strictData(t *sim.Thread, c *simRecvConn, seq, end uint32, born int64) error {
	c.mu.Lock()
	doAck := true
	var ack uint32
	switch {
	case int32(end-c.maxEnd) <= 0:
		// Entirely old: a retransmission of data already acknowledged.
		ack = c.maxEnd

	case int32(seq-c.maxEnd) <= 0:
		// Advances the cumulative point. Count only bytes not already
		// covered by parked ranges (a retransmission can overlap data
		// that arrived out of order earlier).
		newStart := c.maxEnd
		counted := int64(0)
		for _, r := range c.ranges {
			if int32(r.s-end) >= 0 {
				break
			}
			if int32(r.s-newStart) > 0 {
				counted += int64(r.s - newStart)
			}
			if int32(r.e-newStart) > 0 {
				newStart = r.e
			}
		}
		if int32(end-newStart) > 0 {
			counted += int64(end - newStart)
		}
		if counted > 0 {
			t.Count(&d.pkts, 1)
			t.Count(&d.bytes, counted)
			if rec := t.Engine().Rec; rec != nil {
				rec.Deliver(t.Proc, t.Now(), born)
			}
		}
		filledGap := len(c.ranges) > 0
		c.maxEnd = end
		for len(c.ranges) > 0 && int32(c.ranges[0].s-c.maxEnd) <= 0 {
			if int32(c.ranges[0].e-c.maxEnd) > 0 {
				c.maxEnd = c.ranges[0].e
			}
			c.ranges = c.ranges[1:]
		}
		switch {
		case filledGap:
			// A retransmission just filled (part of) a hole: ack the
			// jump immediately so the stalled sender reopens its window
			// now, not at the next delayed-ack flush.
			c.unacked = 0
			c.pendingAck = false
		default:
			c.unacked++
			if c.unacked >= d.AckEvery {
				c.unacked = 0
				c.pendingAck = false
			} else {
				c.pendingAck = true
				doAck = false
			}
		}
		ack = c.maxEnd

	default:
		// Gap: park the range and tell the sender where we are, now.
		if c.park(seq, end) {
			t.Count(&d.pkts, 1)
			t.Count(&d.bytes, int64(end-seq))
			if rec := t.Engine().Rec; rec != nil {
				rec.Deliver(t.Proc, t.Now(), born)
			}
		}
		c.unacked = 0
		c.pendingAck = false
		ack = c.maxEnd
	}
	c.mu.Unlock()
	if doAck {
		return d.inject(t, c, tcp.FlagACK, c.iss+1, ack)
	}
	return nil
}

// park inserts [s, e) into the sorted out-of-order list; false means
// the exact range is already parked (a duplicate).
func (c *simRecvConn) park(s, e uint32) bool {
	i := 0
	for ; i < len(c.ranges); i++ {
		if c.ranges[i].s == s {
			return false
		}
		if int32(s-c.ranges[i].s) < 0 {
			break
		}
	}
	c.ranges = append(c.ranges, simRange{})
	copy(c.ranges[i+1:], c.ranges[i:])
	c.ranges[i] = simRange{s, e}
	return true
}

// BadChecksums reports frames rejected by Strict-mode verification.
func (d *SimTCPReceiver) BadChecksums() int64 { return atomic.LoadInt64(&d.badSum) }

// inject builds an acknowledgement from the preconstructed template and
// sends it back up the stack on the calling thread.
func (d *SimTCPReceiver) inject(t *sim.Thread, c *simRecvConn, flags uint8, seq, ack uint32) error {
	return control(t, d.alloc, d.up, d.ackTmpl, c.dport, c.sport, flags, seq, ack)
}

// StartAckFlush registers the 200 ms delayed-ack flush on the event
// wheel: without it, an odd trailing segment would never be acked and a
// window-limited sender would stall forever.
func (d *SimTCPReceiver) StartAckFlush(t *sim.Thread, wheel *event.Wheel) {
	var flush func(*sim.Thread, any)
	flush = func(et *sim.Thread, _ any) {
		if d.stopFlush.Get() {
			return
		}
		for _, c := range d.conns {
			c.mu.Lock()
			do := c.pendingAck && c.started
			var ack uint32
			if do {
				c.pendingAck = false
				c.unacked = 0
				ack = c.maxEnd
			}
			c.mu.Unlock()
			if do {
				d.inject(et, c, tcp.FlagACK, c.iss+1, ack)
			}
		}
		wheel.Schedule(et, flush, nil, 200_000_000)
	}
	wheel.Schedule(t, flush, nil, 200_000_000)
}

// StopAckFlush halts the recurring flush.
func (d *SimTCPReceiver) StopAckFlush() { d.stopFlush.Set() }

var _ xkernel.Wire = (*SimTCPReceiver)(nil)
