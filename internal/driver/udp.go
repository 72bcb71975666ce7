package driver

import (
	"errors"
	"sync/atomic"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xkernel"
)

// Canonical addresses: the stack under test lives on HostLocal; the
// simulated peer on HostPeer.
var (
	HostLocal = xkernel.IPAddr{10, 0, 0, 1}
	HostPeer  = xkernel.IPAddr{10, 0, 0, 2}
)

// LocalPort and PeerPort name connection i's ports. The pair must stay
// unique per connection (it is the demux key): the local port wraps
// every 64 Ki connections, so the peer port advances by one extra step
// per wrap, keeping (local, peer) injective for any i below 2^32 while
// matching the historical 1000+i / 2000+i values for i < 65536.
func LocalPort(i int) uint16 { return uint16(1000 + i) }

// PeerPort returns the simulated peer's port for connection i.
func PeerPort(i int) uint16 { return uint16(2000 + i + i>>16) }

// connOf inverts LocalPort and PeerPort: the local port gives i's low 16
// bits, and the peer port's extra steps past it give the high bits.
// Every pair inverts to some index; a caller checks it against its
// connection count, and compares the ports so that a port scheme that
// stops inverting fails loudly.
func connOf(local, peer uint16) int { return int(peer-local-1000)<<16 | int(local-1000) }

// UDPSink consumes outbound frames as fast as possible — the send-side
// UDP test's "receiver". The adaptor ring serializes per-frame DMA
// work under the driver lock, a short shared section every packet from
// every processor must pass through.
type UDPSink struct {
	ring sim.Lock
	// Counted under the ring lock but snapshotted lock-free by
	// mid-run measurement on the host backend — hence Thread.Count.
	pkts  int64
	bytes int64
}

// NewUDPSink builds the sink with its adaptor ring lock named for the
// contention-attribution tables.
func NewUDPSink() *UDPSink {
	s := &UDPSink{}
	s.ring.Name = "ring:udp-sink"
	return s
}

// SetUpper does nothing: a UDP receiver sends nothing back up. It stays
// because core.Build binds every peer's upper once FDDI exists, the
// same call for every shape.
func (s *UDPSink) SetUpper(xkernel.Demuxer) {}

// TX consumes one frame, counting its payload bytes.
func (s *UDPSink) TX(t *sim.Thread, m *msg.Message) error {
	st := &t.Engine().C.Stack
	s.ring.Acquire(t)
	t.ChargeRand(st.DriverRing)
	if m.Len() >= udpFrameHdr {
		t.Count(&s.bytes, int64(m.Len()-udpFrameHdr))
		t.Count(&s.pkts, 1)
	}
	s.ring.Release(t)
	t.ChargeRand(st.DriverTX)
	if rec := t.Engine().Rec; rec != nil {
		rec.Deliver(t.Proc, t.Now(), m.Born)
	}
	m.Free(t)
	return nil
}

// Bytes returns payload bytes consumed so far.
func (s *UDPSink) Bytes() int64 { return atomic.LoadInt64(&s.bytes) }

// Packets returns frames consumed so far.
func (s *UDPSink) Packets() int64 { return atomic.LoadInt64(&s.pkts) }

// UDPSource produces inbound frames from a preconstructed template — the
// receive-side UDP test's "sender". Pumped, each processor's thread
// produces through the adaptor ring and injects what it produced
// (PumpBatch). Steered, it is the Flow-Director NIC of a single
// dispatcher thread, which owns its ring: Arrive builds each arrival's
// frame, the steering decision picks a processor, and that processor's
// worker Injects it.
type UDPSource struct {
	up    xkernel.Demuxer
	alloc *msg.Allocator
	ring  sim.Lock
	conns int

	// produced counts the frames the NIC built (Arrive; engine-serialized,
	// read by the telemetry gauges through Produced). Each is one template
	// long, so it counts the bytes too.
	produced int64

	// tmpl is every connection's payload-sized datagram addressed to the
	// stack under test; each copy gets its connection's port pair, so the
	// footprint stays one frame at a million connections.
	tmpl []byte
}

// NewUDPSource builds a source for conns connections. A steered source's
// payload must hold workload.StampLen bytes.
func NewUDPSource(alloc *msg.Allocator, payload, conns int) *UDPSource {
	s := &UDPSource{alloc: alloc, conns: conns,
		tmpl: udpTemplate(payload, HostPeer, HostLocal, PeerPort(0), LocalPort(0))}
	s.ring.Name = "ring:udp-src"
	return s
}

// SetUpper connects the source to the MAC layer it injects into.
func (s *UDPSource) SetUpper(up xkernel.Demuxer) { s.up = up }

// errReceiveOnly is UDPSource.TX's error.
var errReceiveOnly = errors.New("driver: the UDP receive side transmitted a frame")

// TX frees the frame and refuses it: the receive side transmits
// nothing, so a transmission is a fault the run reports.
func (s *UDPSource) TX(t *sim.Thread, m *msg.Message) error {
	m.Free(t)
	return errReceiveOnly
}

// PayloadLen returns the UDP payload size every connection shares —
// the unit a merged frame grows by per coalesced segment.
func (s *UDPSource) PayloadLen() int { return len(s.tmpl) - udpFrameHdr }

// BatchGrow returns the tailroom a batch head holds back under bc.
func (s *UDPSource) BatchGrow(bc msg.BatchConfig) int {
	return batchGrow(len(s.tmpl), s.PayloadLen(), bc)
}

// produce builds one pumped datagram through the adaptor ring, with grow
// bytes of tailroom held back for GRO merging (zero for a batch of one),
// stamped (conn, 0, 0).
func (s *UDPSource) produce(t *sim.Thread, conn, grow int) (*msg.Message, error) {
	c := conn % s.conns
	m, err := newFrame(t, s.alloc, &s.ring, s.tmpl, udpFrameHdr, grow, c, 0, 0)
	if err != nil {
		return nil, err
	}
	t.Interfere()
	arrive(t, m, int64(conn))
	return m, nil
}

// Arrive builds the frame for one steered arrival on the NIC thread, with
// grow bytes of tailroom held back for the batch it may head. Its payload
// starts with the arrival's stamp (connection, sequence, generation), so
// the delivery sink measures ordering without a side channel. The frame
// is not yet injected: the steering decision picks the worker that will
// Inject it.
func (s *UDPSource) Arrive(t *sim.Thread, a workload.Arrival, grow int) (*msg.Message, error) {
	c := a.Conn % s.conns
	m, err := newFrame(t, s.alloc, nil, s.tmpl, udpFrameHdr, grow, c, a.Seq, a.Gen)
	if err != nil {
		return nil, err
	}
	arrive(t, m, int64(a.Conn))
	s.produced++
	return m, nil
}

// Produced returns the cumulative frames and bytes the NIC has built.
func (s *UDPSource) Produced() (frames, bytes int64) {
	return s.produced, s.produced * int64(len(s.tmpl))
}

// Inject shepherds a dispatched frame up the stack on the calling
// worker thread.
func (s *UDPSource) Inject(t *sim.Thread, m *msg.Message) error {
	return s.up.Demux(t, m)
}

var _ xkernel.Wire = (*UDPSink)(nil)
var _ xkernel.Wire = (*UDPSource)(nil)
