package driver

import (
	"fmt"
	"sync/atomic"

	"repro/internal/msg"
	"repro/internal/sim"
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

// UDPSink consumes outbound frames as fast as possible — the send-side
// UDP test's "receiver". The adaptor ring serializes per-frame DMA
// work under the driver lock, a short shared section every packet from
// every processor must pass through.
type UDPSink struct {
	ring sim.Mutex
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

// UDPSource produces inbound frames from preconstructed templates — the
// receive-side UDP test's "sender".
type UDPSource struct {
	up    xkernel.Upper
	alloc *msg.Allocator
	ring  sim.Mutex
	tmpl  [][]byte
}

// NewUDPSource builds a source with one template per connection, each
// carrying payload-sized datagrams addressed to the stack under test.
func NewUDPSource(alloc *msg.Allocator, payload, conns int) *UDPSource {
	s := &UDPSource{alloc: alloc}
	s.ring.Name = "ring:udp-src"
	for i := 0; i < conns; i++ {
		s.tmpl = append(s.tmpl,
			udpTemplate(payload, HostPeer, HostLocal, PeerPort(i), LocalPort(i)))
	}
	return s
}

// SetUpper connects the source to the MAC layer it injects into.
func (s *UDPSource) SetUpper(up xkernel.Upper) { s.up = up }

// TX absorbs anything the stack tries to transmit (nothing, on the
// receive side).
func (s *UDPSource) TX(t *sim.Thread, m *msg.Message) error {
	st := &t.Engine().C.Stack
	s.ring.Acquire(t)
	t.ChargeRand(st.DriverRing)
	s.ring.Release(t)
	t.ChargeRand(st.DriverTX)
	m.Free(t)
	return nil
}

// produce builds one template frame, with grow bytes of tailroom held
// back for GRO merging (zero for a batch of one).
func (s *UDPSource) produce(t *sim.Thread, conn, grow int) (*msg.Message, error) {
	tmpl := s.tmpl[conn%len(s.tmpl)]
	m, err := s.alloc.New(t, len(tmpl)+grow, 0)
	if err != nil {
		return nil, fmt.Errorf("driver: udp source: %w", err)
	}
	if grow > 0 {
		if err := m.TrimBack(t, grow); err != nil {
			m.Free(t)
			return nil, err
		}
	}
	st := &t.Engine().C.Stack
	s.ring.Acquire(t)
	t.ChargeRand(st.DriverRing)
	s.ring.Release(t)
	t.ChargeRand(st.DriverRXGen)
	if err := m.CopyTemplate(0, tmpl); err != nil {
		m.Free(t)
		return nil, err
	}
	t.Interfere()
	if rec := t.Engine().Rec; rec != nil {
		m.Born = t.Now()
		rec.Arrive(t.Proc, m.Born, int64(conn))
	}
	return m, nil
}

var _ xkernel.Wire = (*UDPSink)(nil)
var _ xkernel.Wire = (*UDPSource)(nil)
