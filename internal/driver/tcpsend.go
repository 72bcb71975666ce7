package driver

import (
	"fmt"
	"sync/atomic"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/xkernel"
)

// SimTCPSender is the simulated TCP sender below the FDDI layer in
// receive-side tests. It produces data packets in order from
// preconstructed templates (no checksums) for consumption by the actual
// TCP receiver, and flow-controls itself appropriately using the
// acknowledgements and window information returned by the receiver
// (Section 2.3). It also performs its role in setting up connections.
type SimTCPSender struct {
	up    xkernel.Demuxer
	alloc *msg.Allocator
	ring  sim.Lock

	// FaultRecovery makes the peer behave like a real sender over a
	// lossy wire: three duplicate acks retransmit the segment at the
	// acknowledged offset, and a window-closed wait that outlasts the
	// retransmission timeout resends it too. Off by default — over the
	// error-free drivers it never triggers and the fast path stays
	// byte-identical.
	FaultRecovery bool

	payload  int
	conns    []*simSendConn
	rexmtDup int64 // resends triggered by duplicate acks
	rexmtTO  int64 // resends triggered by the Produce timeout

	// tmpl is every connection's data frame; each copy gets its
	// connection's port pair, sequence and ack. Last, so no field the
	// producing threads share moved for it.
	tmpl []byte
}

// simSendConn per-connection state. estab/ackOff/rcvWnd are written by
// whichever thread carries the receiver's outbound ack (TX) and read by
// the producing threads; on the host backend those run concurrently, so
// the fields are atomic. dupAcks and the rexmt counters are
// FaultRecovery-only, which the host backend rejects.
type simSendConn struct {
	sport, dport uint16 // driver's perspective: peer -> local stack
	iss          uint32
	irs          uint32
	estab        atomic.Bool
	next         sim.Counter // payload offset allocator: in-order production
	ackOff       uint32      // acknowledged payload offset (atomic, monotonic max)
	rcvWnd       uint32      // atomic
	dupAcks      int         // FaultRecovery: consecutive duplicate acks seen
}

// rexmtTimeoutNs is the FaultRecovery retransmission timeout: how long
// Produce waits on a closed window before resending the oldest
// unacknowledged segment. Far above the simulated RTT (microseconds),
// far below the measurement intervals.
const rexmtTimeoutNs = 10_000_000

// NewSimTCPSender builds the driver with conns connections producing
// payload-sized segments.
func NewSimTCPSender(alloc *msg.Allocator, payload, conns int) *SimTCPSender {
	d := &SimTCPSender{alloc: alloc, payload: payload,
		tmpl: tcpTemplate(payload, HostPeer, HostLocal, PeerPort(0), LocalPort(0), 4<<20)}
	d.ring.Name = "ring:tcp-send"
	for i := 0; i < conns; i++ {
		d.conns = append(d.conns, &simSendConn{
			sport: PeerPort(i),
			dport: LocalPort(i),
			iss:   uint32(500000 + i*100000),
		})
	}
	return d
}

// SetUpper connects the driver to the MAC layer above it.
func (d *SimTCPSender) SetUpper(up xkernel.Demuxer) { d.up = up }

// Start injects connection conn's SYN on the calling thread. A
// packet-level stack completes the handshake within the call; one that
// queues packets between layers completes it on its stage threads, so
// callers poll Established.
func (d *SimTCPSender) Start(t *sim.Thread, conn int) error {
	c := d.conns[conn]
	return d.injectControl(t, c, tcp.FlagSYN, c.iss, 0)
}

// Established reports whether connection conn's handshake completed.
func (d *SimTCPSender) Established(conn int) bool { return d.conns[conn].estab.Load() }

// TX absorbs the real TCP's outbound segments: the SYN-ACK during setup
// and window-updating acknowledgements during data transfer.
func (d *SimTCPSender) TX(t *sim.Thread, m *msg.Message) error {
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
		return fmt.Errorf("driver: non-TCP frame at SimTCPSender")
	}
	m.Free(t)
	// The stack sends from connection i's local port to its peer port.
	conn := connOf(sg.SPort, sg.DPort)
	if conn >= len(d.conns) || d.conns[conn].sport != sg.DPort || d.conns[conn].dport != sg.SPort {
		return fmt.Errorf("driver: unknown connection %d->%d", sg.SPort, sg.DPort)
	}
	c := d.conns[conn]
	switch {
	case sg.Flags&(tcp.FlagSYN|tcp.FlagACK) == tcp.FlagSYN|tcp.FlagACK:
		c.irs = sg.Seq
		atomic.StoreUint32(&c.rcvWnd, sg.Win)
		c.estab.Store(true)
		// Ack the SYN-ACK; data may then flow.
		return d.injectControl(t, c, tcp.FlagACK, c.iss+1, c.irs+1)
	case sg.Flags&tcp.FlagACK != 0:
		off := sg.Ack - c.iss - 1
		cur := atomic.LoadUint32(&c.ackOff)
		if int32(off-cur) > 0 {
			// Monotonic max: on the host backend, acks carried by
			// different threads race here and a stale smaller ack must
			// not roll the edge back.
			for !atomic.CompareAndSwapUint32(&c.ackOff, cur, off) {
				cur = atomic.LoadUint32(&c.ackOff)
				if int32(off-cur) <= 0 {
					break
				}
			}
			if d.FaultRecovery {
				c.dupAcks = 0
			}
		} else if d.FaultRecovery && c.estab.Load() && sg.DLen == 0 &&
			off == cur && int32(off-uint32(c.next.Load())) < 0 {
			// Duplicate ack while data is outstanding: the receiver is
			// missing the segment right at the ack point.
			c.dupAcks++
			if c.dupAcks >= 3 {
				c.dupAcks = 0
				d.rexmtDup++
				atomic.StoreUint32(&c.rcvWnd, sg.Win)
				return d.resend(t, c, conn)
			}
		}
		atomic.StoreUint32(&c.rcvWnd, sg.Win)
		return nil
	default:
		return nil
	}
}

// Produce builds the next in-sequence data packet for connection conn,
// with grow bytes of tailroom held back for GRO merging, waiting while
// the receiver's flow-control window is exhausted. It returns (nil,
// false, nil) when stopped before producing. The caller shepherds the
// packet up the stack with Inject — directly for packet-level
// parallelism, or after a thread handoff for the connection-level and
// layered strategies.
func (d *SimTCPSender) Produce(t *sim.Thread, conn int, stop *sim.Flag, grow int) (*msg.Message, bool, error) {
	c := d.conns[conn]
	waited := int64(0)
	for {
		if stop != nil && stop.Get() {
			return nil, false, nil
		}
		if d.admits(c) {
			break
		}
		if d.FaultRecovery && c.estab.Load() && waited >= rexmtTimeoutNs {
			// The window has been closed for a full retransmission
			// timeout: the segment at the ack point was lost and no
			// duplicate acks are flowing. Resend it.
			waited = 0
			d.rexmtTO++
			if err := d.resend(t, c, conn); err != nil {
				return nil, false, err
			}
			continue
		}
		// Window closed (or still connecting): the real receiver's
		// delayed-ack flush or our peer's acks will reopen it.
		t.Sleep(200_000)
		waited += 200_000
	}
	return d.build(t, c, conn, grow)
}

// Rexmts reports FaultRecovery resends: (duplicate-ack triggered,
// timeout triggered).
func (d *SimTCPSender) Rexmts() (int64, int64) { return d.rexmtDup, d.rexmtTO }

// resend rebuilds and re-injects the segment at the acknowledged
// offset — one-segment go-back-N recovery. Production is strictly
// sequential in payload-sized units, so the lost segment starts
// exactly at ackOff, which trails the production offset by less than
// 2^32: the 64-bit offset is the production offset less that distance.
func (d *SimTCPSender) resend(t *sim.Thread, c *simSendConn, conn int) error {
	next := c.next.Load()
	m, err := d.frame(t, c, conn, next-int64(uint32(next)-atomic.LoadUint32(&c.ackOff)), 0)
	if err != nil {
		return err
	}
	return d.Inject(t, m)
}

// TryProduce builds the next in-sequence data packet for connection
// conn only if the flow-control window admits it right now; ok=false
// means the window is closed (or the connection not yet established).
// Workers that service handoff queues use this instead of Produce so a
// closed window never blocks them (which could stall the queues that
// must drain to reopen the window).
func (d *SimTCPSender) TryProduce(t *sim.Thread, conn int) (*msg.Message, bool, error) {
	c := d.conns[conn]
	if !d.admits(c) {
		return nil, false, nil
	}
	return d.build(t, c, conn, 0)
}

// admits reports whether connection c is established and its window
// takes one more segment now.
func (d *SimTCPSender) admits(c *simSendConn) bool {
	return c.estab.Load() &&
		uint32(c.next.Load())-atomic.LoadUint32(&c.ackOff)+uint32(d.payload) <= atomic.LoadUint32(&c.rcvWnd)
}

// build allocates the next sequence number's packet for connection
// conn, c, holding grow bytes of tailroom back for GRO merging.
func (d *SimTCPSender) build(t *sim.Thread, c *simSendConn, conn, grow int) (*msg.Message, bool, error) {
	m, err := d.frame(t, c, conn, c.next.Add(t, int64(d.payload)), grow)
	return m, err == nil, err
}

// frame builds connection conn's data segment at payload offset off from
// the template, grow bytes of tailroom held back, stamped with its
// segment index off/payload (a 64-bit offset: the index does not wrap
// with the sequence space), and patches in its sequence and ack.
func (d *SimTCPSender) frame(t *sim.Thread, c *simSendConn, conn int, off int64, grow int) (*msg.Message, error) {
	seq := c.iss + 1 + uint32(off)
	m, err := newFrame(t, d.alloc, &d.ring, d.tmpl, tcpFrameHdr, grow, conn, off/int64(d.payload), 0)
	if err != nil {
		return nil, err
	}
	b := m.Bytes()
	patchTCPSeq(b, seq)
	patchTCPAck(b, c.irs+1)
	m.Seq = uint64(seq)
	arrive(t, m, int64(seq))
	return m, nil
}

// Inject shepherds a produced packet up the stack on the calling
// thread (thread-per-packet).
func (d *SimTCPSender) Inject(t *sim.Thread, m *msg.Message) error {
	t.Interfere()
	return d.up.Demux(t, m)
}

// injectControl sends a zero-payload control segment up the stack.
func (d *SimTCPSender) injectControl(t *sim.Thread, c *simSendConn, flags uint8, seq, ack uint32) error {
	return control(t, d.alloc, d.up, d.tmpl, c.sport, c.dport, flags, seq, ack)
}

var _ xkernel.Wire = (*SimTCPSender)(nil)
