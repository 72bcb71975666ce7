package driver

import (
	"encoding/binary"
	"fmt"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xkernel"
)

// SteerSource is the receive-side driver for steered runs: a single
// dispatcher thread (the simulated NIC) produces frames from per-
// connection templates, and worker threads inject the dispatched
// frames up the stack. Each payload carries a workload stamp
// (connection, sequence, generation) so the delivery sink can measure
// ordering without metadata side channels.
type SteerSource struct {
	up    xkernel.Upper
	alloc *msg.Allocator
	conns int

	// All connections share one template: frames differ only in the UDP
	// port pair (patched per produce) and the payload stamp, so the
	// driver's memory footprint stays O(1) at 100k+ connections instead
	// of one full frame per connection.
	tmpl []byte

	// NIC production counters (engine-serialized; telemetry gauges read
	// them through Produced).
	produced      int64
	producedBytes int64
}

// NewSteerSource builds the shared frame template. payload must be at
// least workload.StampLen bytes.
func NewSteerSource(alloc *msg.Allocator, payload, conns int) *SteerSource {
	return &SteerSource{
		alloc: alloc,
		conns: conns,
		tmpl:  udpTemplate(payload, HostPeer, HostLocal, PeerPort(0), LocalPort(0)),
	}
}

// SetUpper connects the source to the MAC layer it injects into.
func (s *SteerSource) SetUpper(up xkernel.Upper) { s.up = up }

// TX absorbs anything the stack tries to transmit (nothing, on the
// receive side).
func (s *SteerSource) TX(t *sim.Thread, m *msg.Message) error {
	st := &t.Engine().C.Stack
	t.ChargeRand(st.DriverRing)
	t.ChargeRand(st.DriverTX)
	m.Free(t)
	return nil
}

// Produce builds the frame for one arrival on the dispatcher thread:
// template copy, workload stamp, birth timestamp. The frame is not yet
// injected — the steering decision picks the processor whose worker
// will Inject it.
func (s *SteerSource) Produce(t *sim.Thread, a workload.Arrival) (*msg.Message, error) {
	return s.ProduceGrow(t, a, 0)
}

// ProduceGrow is Produce with grow bytes of tailroom reserved for GRO
// merging when the frame becomes a batch head.
func (s *SteerSource) ProduceGrow(t *sim.Thread, a workload.Arrival, grow int) (*msg.Message, error) {
	m, err := s.alloc.New(t, len(s.tmpl)+grow, 0)
	if err != nil {
		return nil, fmt.Errorf("driver: steer source: %w", err)
	}
	if grow > 0 {
		if err := m.TrimBack(t, grow); err != nil {
			m.Free(t)
			return nil, err
		}
	}
	st := &t.Engine().C.Stack
	t.ChargeRand(st.DriverRXGen)
	if err := m.CopyTemplate(0, s.tmpl); err != nil {
		m.Free(t)
		return nil, err
	}
	// Patch the connection's port pair into the copied frame (the only
	// bytes that vary between connections besides the stamp).
	conn := a.Conn % s.conns
	b := m.Bytes()
	binary.BigEndian.PutUint16(b[offUDP+0:], PeerPort(conn))
	binary.BigEndian.PutUint16(b[offUDP+2:], LocalPort(conn))
	workload.EncodeStamp(b[udpFrameHdr:], a.Conn, a.Seq, a.Gen)
	if rec := t.Engine().Rec; rec != nil {
		m.Born = t.Now()
		rec.Arrive(t.Proc, m.Born, int64(a.Conn))
	}
	s.produced++
	s.producedBytes += int64(m.Len())
	return m, nil
}

// Produced returns the cumulative frames and bytes the NIC has built.
func (s *SteerSource) Produced() (frames, bytes int64) {
	return s.produced, s.producedBytes
}

// PayloadLen returns the UDP payload size every connection shares —
// the unit a merged frame grows by per coalesced segment.
func (s *SteerSource) PayloadLen() int {
	return len(s.tmpl) - udpFrameHdr
}

// BatchGrow exposes the head-frame tailroom reservation under the
// given batch configuration (the core dispatcher's allocation
// decision).
func (s *SteerSource) BatchGrow(bc msg.BatchConfig) int {
	return batchGrow(len(s.tmpl), s.PayloadLen(), bc)
}

// Inject shepherds a dispatched frame up the stack on the calling
// worker thread.
func (s *SteerSource) Inject(t *sim.Thread, m *msg.Message) error {
	return s.up.Demux(t, m)
}

var _ xkernel.Wire = (*SteerSource)(nil)
