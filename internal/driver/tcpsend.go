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
	up    xkernel.Upper
	alloc *msg.Allocator
	ring  sim.Mutex

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
	tmpl         []byte
}

// rexmtTimeoutNs is the FaultRecovery retransmission timeout: how long
// Produce waits on a closed window before resending the oldest
// unacknowledged segment. Far above the simulated RTT (microseconds),
// far below the measurement intervals.
const rexmtTimeoutNs = 10_000_000

// NewSimTCPSender builds the driver with conns connections producing
// payload-sized segments.
func NewSimTCPSender(alloc *msg.Allocator, payload, conns int) *SimTCPSender {
	d := &SimTCPSender{alloc: alloc, payload: payload}
	d.ring.Name = "ring:tcp-send"
	for i := 0; i < conns; i++ {
		c := &simSendConn{
			sport: PeerPort(i),
			dport: LocalPort(i),
			iss:   uint32(500000 + i*100000),
		}
		c.tmpl = tcpTemplate(payload, HostPeer, HostLocal, c.sport, c.dport, 4<<20)
		d.conns = append(d.conns, c)
	}
	return d
}

// SetUpper connects the driver to the MAC layer above it.
func (d *SimTCPSender) SetUpper(up xkernel.Upper) { d.up = up }

// Start performs the three-way handshake for connection conn on the
// calling thread. The receive-side TCB must already be listening and
// the stack synchronous (packet-level); pipelined stacks use StartAsync
// and poll Established.
func (d *SimTCPSender) Start(t *sim.Thread, conn int) error {
	if err := d.StartAsync(t, conn); err != nil {
		return err
	}
	if !d.conns[conn].estab.Load() {
		return fmt.Errorf("driver: connection %d failed to establish", conn)
	}
	return nil
}

// StartAsync injects the SYN without requiring the SYN-ACK to arrive
// synchronously: stacks that queue packets between layers complete the
// handshake on their stage threads.
func (d *SimTCPSender) StartAsync(t *sim.Thread, conn int) error {
	c := d.conns[conn]
	return d.injectControl(t, c, tcp.FlagSYN, c.iss, 0)
}

// Established reports connection state (tests).
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
	var c *simSendConn
	for _, cc := range d.conns {
		if cc.sport == sg.DPort && cc.dport == sg.SPort {
			c = cc
			break
		}
	}
	if c == nil {
		return fmt.Errorf("driver: unknown connection %d->%d", sg.SPort, sg.DPort)
	}
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
				return d.resend(t, c)
			}
		}
		atomic.StoreUint32(&c.rcvWnd, sg.Win)
		return nil
	default:
		return nil
	}
}

// Produce builds the next in-sequence data packet for connection conn,
// waiting while the receiver's flow-control window is exhausted. It
// returns (nil, false, nil) when stopped before producing. The caller
// shepherds the packet up the stack with Inject — directly for
// packet-level parallelism, or after a thread handoff for the
// connection-level and layered strategies.
func (d *SimTCPSender) Produce(t *sim.Thread, conn int, stop *sim.Flag) (*msg.Message, bool, error) {
	return d.produce(t, conn, stop, 0)
}

// produce is Produce with grow bytes of tailroom reserved on the built
// frame for GRO merging.
func (d *SimTCPSender) produce(t *sim.Thread, conn int, stop *sim.Flag, grow int) (*msg.Message, bool, error) {
	c := d.conns[conn]
	ps := uint32(d.payload)
	waited := int64(0)
	for {
		if stop != nil && stop.Get() {
			return nil, false, nil
		}
		if c.estab.Load() {
			outstanding := uint32(c.next.Load()) - atomic.LoadUint32(&c.ackOff)
			if outstanding+ps <= atomic.LoadUint32(&c.rcvWnd) {
				break
			}
			if d.FaultRecovery && waited >= rexmtTimeoutNs {
				// The window has been closed for a full retransmission
				// timeout: the segment at the ack point was lost and no
				// duplicate acks are flowing. Resend it.
				waited = 0
				d.rexmtTO++
				if err := d.resend(t, c); err != nil {
					return nil, false, err
				}
				continue
			}
		}
		// Window closed (or still connecting): the real receiver's
		// delayed-ack flush or our peer's acks will reopen it.
		t.Sleep(200_000)
		waited += 200_000
	}
	return d.build(t, c, ps, grow)
}

// Rexmts reports FaultRecovery resends: (duplicate-ack triggered,
// timeout triggered).
func (d *SimTCPSender) Rexmts() (int64, int64) { return d.rexmtDup, d.rexmtTO }

// resend rebuilds and re-injects the segment at the acknowledged
// offset — one-segment go-back-N recovery. Production is strictly
// sequential in payload-sized units, so the lost segment starts
// exactly at ackOff.
func (d *SimTCPSender) resend(t *sim.Thread, c *simSendConn) error {
	seq := c.iss + 1 + atomic.LoadUint32(&c.ackOff)
	m, err := d.alloc.New(t, len(c.tmpl), 0)
	if err != nil {
		return err
	}
	st := &t.Engine().C.Stack
	d.ring.Acquire(t)
	t.ChargeRand(st.DriverRing)
	d.ring.Release(t)
	t.ChargeRand(st.DriverRXGen)
	if err := m.CopyTemplate(0, c.tmpl); err != nil {
		m.Free(t)
		return err
	}
	b, _ := m.Peek(m.Len())
	patchTCPSeq(b, seq)
	patchTCPAck(b, c.irs+1)
	m.Seq = uint64(seq)
	if rec := t.Engine().Rec; rec != nil {
		m.Born = t.Now()
		rec.Arrive(t.Proc, m.Born, int64(seq))
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
	ps := uint32(d.payload)
	if !c.estab.Load() {
		return nil, false, nil
	}
	outstanding := uint32(c.next.Load()) - atomic.LoadUint32(&c.ackOff)
	if outstanding+ps > atomic.LoadUint32(&c.rcvWnd) {
		return nil, false, nil
	}
	return d.build(t, c, ps, 0)
}

// build allocates the packet and stamps its sequence number, holding
// grow bytes of tailroom back for GRO merging.
func (d *SimTCPSender) build(t *sim.Thread, c *simSendConn, ps uint32, grow int) (*msg.Message, bool, error) {
	off := uint32(c.next.Add(t, int64(ps)))
	seq := c.iss + 1 + off

	m, err := d.alloc.New(t, len(c.tmpl)+grow, 0)
	if err != nil {
		return nil, false, err
	}
	if grow > 0 {
		if err := m.TrimBack(t, grow); err != nil {
			m.Free(t)
			return nil, false, err
		}
	}
	st := &t.Engine().C.Stack
	d.ring.Acquire(t)
	t.ChargeRand(st.DriverRing)
	d.ring.Release(t)
	t.ChargeRand(st.DriverRXGen)
	if err := m.CopyTemplate(0, c.tmpl); err != nil {
		m.Free(t)
		return nil, false, err
	}
	b, _ := m.Peek(m.Len())
	patchTCPSeq(b, seq)
	patchTCPAck(b, c.irs+1)
	m.Seq = uint64(seq)
	if rec := t.Engine().Rec; rec != nil {
		m.Born = t.Now()
		rec.Arrive(t.Proc, m.Born, int64(seq))
	}
	return m, true, nil
}

// Inject shepherds a produced packet up the stack on the calling
// thread (thread-per-packet).
func (d *SimTCPSender) Inject(t *sim.Thread, m *msg.Message) error {
	t.Interfere()
	return d.up.Demux(t, m)
}

// injectControl sends a zero-payload control segment up the stack.
func (d *SimTCPSender) injectControl(t *sim.Thread, c *simSendConn, flags uint8, seq, ack uint32) error {
	t.ChargeRand(t.Engine().C.Stack.DriverAck)
	tmpl := c.tmpl[:tcpFrameHdr]
	m, err := d.alloc.New(t, len(tmpl), 0)
	if err != nil {
		return err
	}
	if err := m.CopyTemplate(0, tmpl); err != nil {
		m.Free(t)
		return err
	}
	b, _ := m.Peek(m.Len())
	// Fix the IP total length for the zero-payload frame.
	buildIP(b[offIP:], len(tmpl)-offIP, 7, 6, HostPeer, HostLocal)
	b[offTCP+12] = flags
	patchTCPSeq(b, seq)
	patchTCPAck(b, ack)
	return d.up.Demux(t, m)
}

var _ xkernel.Wire = (*SimTCPSender)(nil)
