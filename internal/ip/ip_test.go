package ip

import (
	"encoding/binary"
	"testing"

	"repro/internal/cost"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
)

func run(t *testing.T, body func(th *sim.Thread)) {
	t.Helper()
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	e.Spawn("test", 0, body)
	e.Run()
}

// loopLower models the MAC layer as a direct loop back into the IP
// protocol's own Demux (the destination address is the local address),
// noting each datagram's flags/offset field on the way.
type loopLower struct {
	p        *Protocol
	flagsOff []uint16
}

func (l *loopLower) Push(t *sim.Thread, m *msg.Message) error {
	l.flagsOff = append(l.flagsOff, binary.BigEndian.Uint16(m.Bytes()[6:8]))
	return l.p.Demux(t, m)
}
func (l *loopLower) Close(t *sim.Thread) error { return nil }

// sink collects transport-level deliveries.
type sink struct {
	ref  sim.RefCount
	msgs []*msg.Message
}

func newSink() *sink {
	s := &sink{}
	s.ref.Init(sim.RefAtomic, 1)
	return s
}
func (s *sink) Demux(t *sim.Thread, m *msg.Message) error {
	s.msgs = append(s.msgs, m)
	return nil
}
func (s *sink) Ref() *sim.RefCount { return &s.ref }

var hostA = xkernel.IPAddr{10, 0, 0, 1}

func newStack(t *testing.T, th *sim.Thread, mtu int) (*Protocol, *sink, *msg.Allocator) {
	t.Helper()
	alloc := msg.NewAllocator(msg.DefaultConfig(4))
	var loop loopLower
	low := LowerFDDI(mtu, func(t2 *sim.Thread, remote xkernel.MAC, proto uint16) (xkernel.Session, error) {
		return &loop, nil
	})
	p := New(Config{Local: hostA}, low)
	loop.p = p
	up := newSink()
	if err := p.OpenEnable(th, ProtoUDP, up); err != nil {
		t.Fatal(err)
	}
	return p, up, alloc
}

func TestSmallDatagramRoundTrip(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p, up, alloc := newStack(t, th, 4352)
		s, err := p.Open(th, hostA, ProtoUDP)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := alloc.New(th, 512, msg.Headroom)
		for i := range m.Bytes() {
			m.Bytes()[i] = byte(i * 3)
		}
		if err := s.Push(th, m); err != nil {
			t.Fatal(err)
		}
		if len(up.msgs) != 1 {
			t.Fatalf("delivered %d, want 1", len(up.msgs))
		}
		got := up.msgs[0]
		if got.Len() != 512 {
			t.Fatalf("len = %d, want 512", got.Len())
		}
		for i := 0; i < 512; i++ {
			if got.Bytes()[i] != byte(i*3) {
				t.Fatalf("byte %d damaged", i)
			}
		}
		st := p.Stats()
		if st.Sent != 1 || st.Received != 1 || st.FragsDropped != 0 {
			t.Errorf("stats = %+v", st)
		}
	})
}

// balanced reports whether every message node allocated from a has
// been freed.
func balanced(a *msg.Allocator) bool {
	st := a.Stats()
	return st.CacheHits+st.ArenaAllocs == st.Frees
}

func TestPushOverMTURefused(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p, up, alloc := newStack(t, th, 256)
		s, _ := p.Open(th, hostA, ProtoUDP)
		m, _ := alloc.New(th, 256-HdrLen+1, msg.Headroom)
		if err := s.Push(th, m); err != ErrTooBig {
			t.Fatalf("err = %v, want ErrTooBig", err)
		}
		if len(up.msgs) != 0 || p.Stats().Sent != 0 {
			t.Errorf("refused datagram went out: %d delivered, stats %+v", len(up.msgs), p.Stats())
		}
		if !balanced(alloc) {
			t.Errorf("refused datagram not freed: %+v", alloc.Stats())
		}
	})
}

func TestDatagramIDsIncrement(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p, _, alloc := newStack(t, th, 4352)
		s, _ := p.Open(th, hostA, ProtoUDP)
		for i := 0; i < 3; i++ {
			m, _ := alloc.New(th, 10, msg.Headroom)
			if err := s.Push(th, m); err != nil {
				t.Fatal(err)
			}
		}
		if got := p.id.Load(); got != 3 {
			t.Errorf("datagram id counter = %d, want 3", got)
		}
	})
}

func TestHeaderChecksumValidated(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p, up, alloc := newStack(t, th, 4352)
		m, _ := alloc.New(th, HdrLen+8, 0)
		writeHeader(m.Bytes()[:HdrLen], HdrLen+8, 1, 0, ProtoUDP, hostA, hostA)
		m.Bytes()[4] ^= 0xff // corrupt after checksumming
		if err := p.Demux(th, m); err != ErrBadChecksum {
			t.Fatalf("err = %v, want ErrBadChecksum", err)
		}
		if len(up.msgs) != 0 {
			t.Error("corrupted packet delivered")
		}
		if p.Stats().ChecksumBad != 1 {
			t.Error("ChecksumBad not counted")
		}
	})
}

func TestWrongDestinationRejected(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p, _, alloc := newStack(t, th, 4352)
		m, _ := alloc.New(th, HdrLen+8, 0)
		other := xkernel.IPAddr{10, 0, 0, 99}
		writeHeader(m.Bytes()[:HdrLen], HdrLen+8, 1, 0, ProtoUDP, hostA, other)
		if err := p.Demux(th, m); err != ErrNotOurs {
			t.Fatalf("err = %v, want ErrNotOurs", err)
		}
	})
}

func TestUnknownTransportRejected(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p, _, alloc := newStack(t, th, 4352)
		m, _ := alloc.New(th, HdrLen+4, 0)
		writeHeader(m.Bytes()[:HdrLen], HdrLen+4, 1, 0, 99, hostA, hostA)
		if err := p.Demux(th, m); err == nil {
			t.Fatal("expected error for unknown transport")
		}
		if p.Stats().NotDeliverable != 1 {
			t.Error("NotDeliverable not counted")
		}
	})
}

func TestShortPacketRejected(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p, _, alloc := newStack(t, th, 4352)
		m, _ := alloc.New(th, 4, 0)
		if err := p.Demux(th, m); err != ErrShort {
			t.Fatalf("err = %v, want ErrShort", err)
		}
	})
}

func TestTrailingPadTrimmed(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p, up, alloc := newStack(t, th, 4352)
		// 8 bytes of payload, 6 bytes of MAC pad after it.
		m, _ := alloc.New(th, HdrLen+8+6, 0)
		writeHeader(m.Bytes()[:HdrLen], HdrLen+8, 1, 0, ProtoUDP, hostA, hostA)
		if err := p.Demux(th, m); err != nil {
			t.Fatal(err)
		}
		if got := up.msgs[0].Len(); got != 8 {
			t.Fatalf("delivered len = %d, want 8 (pad not trimmed)", got)
		}
	})
}

// TestDemuxMapIsLive: DemuxMap is the transport table's own header, not
// a copy: a transport enabled after it was taken shows in its counters.
func TestDemuxMapIsLive(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p := New(Config{Local: hostA}, LowerFDDI(4352, nil))
		dm := p.DemuxMap()
		if err := p.OpenEnable(th, ProtoUDP, newSink()); err != nil {
			t.Fatal(err)
		}
		if binds, n := dm.Stats().Binds, dm.Len(th); binds != 1 || n != 1 {
			t.Errorf("DemuxMap after one OpenEnable: %d binds, %d bindings; want 1 and 1", binds, n)
		}
	})
}
