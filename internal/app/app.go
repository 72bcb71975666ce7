// Package app contains the test applications that sit above the
// transport protocols: a throughput-counting sink (the paper's "test
// application ... which simply counts packets that arrive") whose
// critical section is a small lock-increment-unlock sequence, optionally
// preceded by waiting for the message's up-ticket when order must be
// preserved above TCP (Section 4.2).
package app

import (
	"sync/atomic"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
)

// Sink counts delivered packets and bytes.
type Sink struct {
	// Ordered makes the sink wait for each message's ticket before its
	// critical section, preserving delivery order above the transport.
	Ordered bool
	// Seq is the sequencer tickets were drawn from (the connection's).
	Seq *sim.Sequencer

	// pkts/bytes are written under lock (the paper's critical section)
	// but read lock-free by measurement snapshots, which on the host
	// backend run concurrently with deliveries — hence Thread.Count.
	lock  sim.Mutex
	pkts  int64
	bytes int64

	// LastFirstByte records payload[0] of the most recent delivery
	// (order-verification in tests).
	LastFirstByte byte
}

// NewSink builds a sink; seq may be nil when ticketing is off.
func NewSink(ordered bool, seq *sim.Sequencer) *Sink {
	s := &Sink{Ordered: ordered, Seq: seq}
	s.lock.Name = "app-sink"
	return s
}

// Receive counts one delivered message and frees it. A GRO-merged
// frame counts as all the wire segments it carries: the application
// still does per-segment work (charged below), batching only amortized
// the protocol-layer and locking costs on the way up.
func (s *Sink) Receive(t *sim.Thread, m *msg.Message) error {
	t.ChargeRand(t.Engine().C.Stack.AppRecv)
	segs := int64(m.SegCount())
	for i := int64(1); i < segs; i++ {
		t.ChargeRand(t.Engine().C.Stack.AppRecv)
	}
	// Interference between the transport and the application: under
	// ticketing, a delayed ticket holder stalls every thread behind it
	// (they park in Wait and stop fetching packets), which is where the
	// performance of order preservation is lost.
	t.Interfere()
	if s.Ordered && m.Ticketed && s.Seq != nil {
		// Wait for our ticket to be called: this is where the
		// performance of order preservation is lost (Figure 11).
		s.Seq.Wait(t, m.Ticket)
	}
	n := m.Len()
	var first byte
	if n > 0 {
		first = m.Bytes()[0]
	}
	s.lock.Acquire(t)
	t.Count(&s.pkts, segs)
	t.Count(&s.bytes, int64(n))
	s.LastFirstByte = first
	s.lock.Release(t)
	if s.Ordered && m.Ticketed && s.Seq != nil {
		s.Seq.Done(t)
	}
	if rec := t.Engine().Rec; rec != nil {
		rec.Deliver(t.Proc, t.Now(), m.Born)
	}
	m.Free(t)
	return nil
}

// Bytes returns payload bytes delivered — the receive-side throughput
// measurement point.
func (s *Sink) Bytes() int64 { return atomic.LoadInt64(&s.bytes) }

// Packets returns messages delivered.
func (s *Sink) Packets() int64 { return atomic.LoadInt64(&s.pkts) }

var _ xkernel.Receiver = (*Sink)(nil)

// Source generates send-side traffic: fixed-size messages pushed down a
// session as fast as possible, with an explicit processor yield per
// packet (Section 3: "our send-side experiments explicitly yield the
// processor on every packet").
type Source struct {
	Alloc   *msg.Allocator
	Size    int
	Fill    bool // touch every payload byte (the sosend-style data copy)
	payload []byte
}

// NewSource builds a source of size-byte messages.
func NewSource(alloc *msg.Allocator, size int) *Source {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return &Source{Alloc: alloc, Size: size, Fill: true, payload: p}
}

// Next allocates and fills the next message to send.
func (s *Source) Next(t *sim.Thread) (*msg.Message, error) {
	t.ChargeRand(t.Engine().C.Stack.AppSend)
	m, err := s.Alloc.New(t, s.Size, msg.Headroom)
	if err != nil {
		return nil, err
	}
	if s.Fill {
		if err := m.CopyIn(t, 0, s.payload); err != nil {
			m.Free(t)
			return nil, err
		}
	}
	if t.Engine().Rec != nil {
		m.Born = t.Now()
	}
	return m, nil
}
