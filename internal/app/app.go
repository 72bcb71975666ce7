// Package app contains the test applications that sit above the
// transport protocols: the receive side's sink (the paper's "test
// application ... which simply counts packets that arrive") whose
// critical section is a small lock-increment-unlock sequence, optionally
// preceded by waiting for the message's up-ticket when order must be
// preserved above TCP (Section 4.2), and the send side's source.
package app

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/xkernel"
)

// ErrDelivery is the sink's refusal of a delivery: a segment with no
// stamp or one naming no connection, a frame that is not whole segments,
// or a ticketed segment out of order.
var ErrDelivery = errors.New("app: bad delivery")

// Sink counts delivered wire segments and bytes, for every receive
// shape. Each payload segment starts with the stamp (workload.StampLen)
// its driver wrote, which the sink checks and tallies.
type Sink struct {
	// Flows is the steered shape's per-flow state; nil on the others.
	Flows *Flows
	conns int // a stamp names a connection below this
	lock  sim.Lock
	// pkts/bytes are written under lock (the paper's critical section)
	// but read lock-free by measurement snapshots, which on the host
	// backend run concurrently with deliveries — hence Thread.Count. sum
	// is read once the run is over.
	pkts  int64
	bytes int64
	sum   uint64
	// Seq is the connection's sequencer under ticketing (nil otherwise):
	// a ticketed message waits for its ticket before the critical
	// section, preserving delivery order above the transport. It is read
	// for ticketed messages only, so it sits apart from the fields every
	// delivery reads before the lock.
	Seq *sim.Sequencer
}

// NewSink builds the sink for a stack of conns connections.
func NewSink(conns int) *Sink {
	s := &Sink{conns: conns}
	s.lock.Name = "app-sink"
	return s
}

// Receive counts one delivered message and frees it. A GRO-merged
// frame counts as all the wire segments it carries: the application
// still does per-segment work (charged below), batching only amortized
// the protocol-layer and locking costs on the way up. A message that
// fails a check is freed and refused with ErrDelivery.
func (s *Sink) Receive(t *sim.Thread, m *msg.Message) error {
	st := &t.Engine().C.Stack
	b, segs := m.Bytes(), m.SegCount()
	ticketed := m.Ticketed && s.Seq != nil
	stride, tally, err := s.Stamps(m)
	if err != nil {
		if ticketed { // the tickets behind this one must still be called
			s.Seq.Wait(t, m.Ticket)
			s.Seq.Done(t)
		}
		m.Free(t)
		return err
	}
	for i := 0; i < segs; i++ {
		t.ChargeRand(st.AppRecv)
	}
	f := s.Flows
	var cs *connState
	var conn int
	var gen uint32
	if f != nil {
		conn, _, gen = workload.DecodeStamp(b)
		cs = f.state(t, conn)
		if int(cs.appProc) != t.Proc {
			// The consuming application's connection state lives in the
			// app processor's cache: a delivery elsewhere pays the
			// remote-line penalty flow steering exists to avoid.
			t.ChargeRand(st.MsgCold)
		}
	}
	// Interference between the transport and the application: under
	// ticketing, a delayed ticket holder stalls every thread behind it
	// (they park in Wait and stop fetching packets), which is where the
	// performance of order preservation is lost (Figure 11).
	t.Interfere()
	if ticketed {
		s.Seq.Wait(t, m.Ticket)
	}
	s.lock.Acquire(t)
	if ticketed {
		// Ticketing orders one connection: its k-th delivered segment
		// must be segment k.
		k := atomic.LoadInt64(&s.pkts)
		for i := 0; i < segs && err == nil; i++ {
			if _, idx, _ := workload.DecodeStamp(b[i*stride:]); idx != int64(uint32(k+int64(i))) {
				err = fmt.Errorf("%w: ticketed delivery %d carries segment %d", ErrDelivery, k+int64(i), idx)
			}
		}
	}
	appProc := 0
	if cs != nil {
		appProc = f.note(t, cs, b, stride, segs)
	}
	if err == nil {
		t.Count(&s.pkts, int64(segs))
		t.Count(&s.bytes, int64(len(b)))
		s.sum += tally.Sum
	}
	s.lock.Release(t)
	if ticketed {
		s.Seq.Done(t)
	}
	if f != nil {
		f.Tel.Note(t.Proc, uint64(conn)<<32|uint64(gen), int64(segs), int64(len(b)))
		if f.Pin != nil {
			f.Pin(t, conn, gen, appProc)
		}
	}
	if rec := t.Engine().Rec; rec != nil {
		rec.Deliver(t.Proc, t.Now(), m.Born)
	}
	m.Free(t)
	return err
}

// Stamps checks that m is whole equal segments, each opening with a
// stamp that names one of the sink's connections, and returns the
// segment length and their tally. It charges nothing; teardown uses it
// to fold in a message the transport accepted and never delivered.
func (s *Sink) Stamps(m *msg.Message) (int, Tally, error) {
	b, segs := m.Bytes(), m.SegCount()
	stride := len(b)
	if segs > 1 { // a merged frame: the one division stays off the per-packet path
		stride /= segs
	}
	if stride*segs != len(b) || stride < workload.StampLen {
		return 0, Tally{}, fmt.Errorf("%w: %d bytes are not %d stamped segments", ErrDelivery, len(b), segs)
	}
	tl := Tally{Segs: int64(segs)}
	for i := 0; i < segs; i++ {
		conn, idx, _ := workload.DecodeStamp(b[i*stride:])
		if conn >= s.conns {
			return 0, Tally{}, fmt.Errorf("%w: a stamp names connection %d of %d", ErrDelivery, conn, s.conns)
		}
		tl.Sum += mix(conn, idx)
	}
	return stride, tl, nil
}

// Bytes returns payload bytes delivered — the receive-side throughput
// measurement point.
func (s *Sink) Bytes() int64 { return atomic.LoadInt64(&s.bytes) }

// Packets returns wire segments delivered.
func (s *Sink) Packets() int64 { return atomic.LoadInt64(&s.pkts) }

// Delivered returns the tally of every segment delivered, once the run
// is over.
func (s *Sink) Delivered() Tally { return Tally{Segs: s.Packets(), Sum: s.sum} }

var _ xkernel.Receiver = (*Sink)(nil)

// Tally digests a stream of stamped segments: how many, and the sum of
// mix(connection, index) over them. Order does not change it; a repeat
// in place of a gap, or a wrong stamp, does.
type Tally struct {
	Segs int64
	Sum  uint64
}

// Stream adds connection conn's segments 0..n-1, each once.
func (a *Tally) Stream(conn int, n int64) {
	for i := int64(0); i < n; i++ {
		a.Sum += mix(conn, i)
	}
	a.Segs += n
}

// mix is a splitmix64 finalizer over a stamp's connection and index.
func mix(conn int, idx int64) uint64 {
	z := uint64(uint32(conn))<<32 | uint64(uint32(idx)) + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// connState is one connection's steered delivery state; conn records
// which connection holds the slot.
type connState struct {
	maxSeq  int64
	conn    int32
	appProc int32
	since   int32 // deliveries since the last app migration
}

// Flows is the steered shape's part of the sink: per-connection
// misordering by the stamp's sequence, per-processor load, and the
// application-thread migration that makes Flow-Director pins move.
type Flows struct {
	procs, moveEvery int
	rng              sim.Rand
	conns            []connState
	perProc          []int64
	ooo, evictions   int64

	// Pin, when set, is called after each delivery with the flow's
	// identity and the connection's (possibly just-migrated) consuming
	// processor — the Flow-Director update hook.
	Pin func(t *sim.Thread, conn int, gen uint32, proc int)
	// Tel, when non-nil, receives per-processor delivery counts and
	// per-flow sketch updates (telemetry), charging no virtual time.
	Tel *telemetry.Deliveries
}

// NewSteeredSink builds the steered shape's sink for conns connections
// on procs processors. Each connection's application thread starts on
// conn mod procs. With cfg.CompactSlots set below conns, the
// per-connection table is direct-mapped at that size instead of exact
// (slot s starts owned by connection s, the lowest index mapping there).
func NewSteeredSink(cfg workload.Config, conns, procs int) *Sink {
	cfg = cfg.WithDefaults()
	size := conns
	if cfg.CompactSlots > 0 && cfg.CompactSlots < conns {
		size = cfg.CompactSlots
	}
	f := &Flows{procs: procs, moveEvery: cfg.AppMoveEvery, rng: sim.NewRand(cfg.Seed ^ 0x9E37_79B9_7F4A_7C15),
		conns: make([]connState, size), perProc: make([]int64, procs+2)}
	for i := range f.conns {
		f.conns[i] = connState{conn: int32(i), appProc: int32(i % procs)}
	}
	s := &Sink{conns: conns, Flows: f}
	s.lock.Name = "steer-sink"
	return s
}

// state returns connection conn's accounting entry, at conn mod the
// table's size. In a compact table a collision evicts the previous
// occupant: the newcomer takes the slot with a fresh watermark and its
// home processor as app affinity — deterministic, O(1), bounded.
func (f *Flows) state(t *sim.Thread, conn int) *connState {
	cs := &f.conns[conn%len(f.conns)]
	if int(cs.conn) != conn {
		t.Count(&f.evictions, 1)
		*cs = connState{conn: int32(conn), appProc: int32(conn % f.procs)}
	}
	return cs
}

// note accounts a delivery's segments to connection cs under the sink's
// lock — misordering is still detected per wire packet in a merged
// frame — and returns the connection's application processor.
func (f *Flows) note(t *sim.Thread, cs *connState, b []byte, stride, segs int) int {
	var ooo int64
	for i := 0; i < segs; i++ {
		if _, seq, _ := workload.DecodeStamp(b[i*stride:]); seq < cs.maxSeq {
			ooo++
		} else {
			cs.maxSeq = seq
		}
		if f.moveEvery > 0 {
			if cs.since++; int(cs.since) >= f.moveEvery {
				cs.since = 0
				cs.appProc = int32(f.rng.Intn(f.procs))
			}
		}
	}
	if p := t.Proc; p >= 0 && p < len(f.perProc) {
		t.Count(&f.perProc[p], int64(segs))
	}
	t.Count(&f.ooo, ooo)
	return int(cs.appProc)
}

// Counts returns the segments delivered below their connection's
// highest sequence so far, the compact table's evictions, and a copy of
// the per-processor delivery counts (pump processors only).
func (f *Flows) Counts() (ooo, evictions int64, perProc []int64) {
	perProc = make([]int64, f.procs)
	for p := range perProc {
		perProc[p] = atomic.LoadInt64(&f.perProc[p])
	}
	return atomic.LoadInt64(&f.ooo), atomic.LoadInt64(&f.evictions), perProc
}

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
