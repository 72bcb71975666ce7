package udp

import (
	"testing"
	"unsafe"

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

var (
	hostA = xkernel.IPAddr{10, 0, 0, 1}
	hostB = xkernel.IPAddr{10, 0, 0, 2}
)

// fakeIP loops pushed segments into the peer UDP protocol's Demux,
// swapping the address perspective, and counts its sessions' Closes.
type fakeIP struct {
	src, dst xkernel.IPAddr
	peer     *Protocol
	closes   int
}

func (f *fakeIP) Open(t *sim.Thread, dst xkernel.IPAddr, proto uint8) (IPSession, error) {
	return &fakeIPSession{f: f}, nil
}

type fakeIPSession struct{ f *fakeIP }

func (s *fakeIPSession) Push(t *sim.Thread, m *msg.Message) error {
	return s.f.peer.Demux(t, m)
}
func (s *fakeIPSession) Close(t *sim.Thread) error { s.f.closes++; return nil }
func (s *fakeIPSession) Src() xkernel.IPAddr       { return s.f.src }
func (s *fakeIPSession) Dst() xkernel.IPAddr       { return s.f.dst }
func (s *fakeIPSession) MSS() int                  { return 4352 - 20 }

type recvSink struct {
	msgs []*msg.Message
}

func (r *recvSink) Receive(t *sim.Thread, m *msg.Message) error {
	r.msgs = append(r.msgs, m)
	return nil
}

// pair builds two UDP instances wired back-to-back and a session each
// way on ports 1000<->2000.
func pair(t *testing.T, th *sim.Thread, mode ChecksumMode) (sa *Session, rb *recvSink, pb *Protocol) {
	t.Helper()
	cfg := Config{Checksum: mode, MapLocking: true}
	ipAB := &fakeIP{src: hostA, dst: hostB}
	ipBA := &fakeIP{src: hostB, dst: hostA}
	pa := New(cfg, ipAB)
	pb = New(cfg, ipBA)
	ipAB.peer = pb
	ipBA.peer = pa
	rb = &recvSink{}
	partA := xkernel.Part{LocalIP: hostA, RemoteIP: hostB, LocalPort: 1000, RemotePort: 2000}
	var err error
	sa, err = pa.Open(th, partA, &recvSink{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = pb.Open(th, partA.Swap(), rb); err != nil {
		t.Fatal(err)
	}
	return sa, rb, pb
}

func newMsg(t *testing.T, th *sim.Thread, n int) *msg.Message {
	t.Helper()
	alloc := msg.NewAllocator(msg.DefaultConfig(4))
	m, err := alloc.New(th, n, msg.Headroom)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Bytes() {
		m.Bytes()[i] = byte(i * 7)
	}
	return m
}

func TestRoundTripNoChecksum(t *testing.T) {
	run(t, func(th *sim.Thread) {
		sa, rb, _ := pair(t, th, ChecksumOff)
		m := newMsg(t, th, 1024)
		if err := sa.Push(th, m); err != nil {
			t.Fatal(err)
		}
		if len(rb.msgs) != 1 {
			t.Fatalf("delivered %d, want 1", len(rb.msgs))
		}
		got := rb.msgs[0]
		if got.Len() != 1024 {
			t.Fatalf("len = %d, want 1024", got.Len())
		}
		for i := 0; i < 1024; i++ {
			if got.Bytes()[i] != byte(i*7) {
				t.Fatalf("byte %d damaged", i)
			}
		}
	})
}

func TestRoundTripEnforcedChecksum(t *testing.T) {
	run(t, func(th *sim.Thread) {
		sa, rb, pb := pair(t, th, ChecksumEnforce)
		m := newMsg(t, th, 512)
		if err := sa.Push(th, m); err != nil {
			t.Fatal(err)
		}
		if len(rb.msgs) != 1 {
			t.Fatal("valid datagram not delivered")
		}
		if pb.Stats().ChecksumBad != 0 {
			t.Error("valid checksum flagged bad")
		}
	})
}

func TestCorruptedDatagramDroppedWhenEnforcing(t *testing.T) {
	run(t, func(th *sim.Thread) {
		cfg := Config{Checksum: ChecksumEnforce, MapLocking: true}
		// A capture-and-corrupt fake: flips a payload bit in flight.
		ipAB := &fakeIP{src: hostA, dst: hostB}
		ipBA := &fakeIP{src: hostB, dst: hostA}
		pa := New(cfg, ipAB)
		pb := New(cfg, ipBA)
		corrupting := &corruptIP{inner: ipAB}
		ipBA.peer = pa
		ipAB.peer = pb
		rb := &recvSink{}
		partA := xkernel.Part{LocalIP: hostA, RemoteIP: hostB, LocalPort: 1, RemotePort: 2}
		sa, err := pa.Open(th, partA, &recvSink{})
		_ = sa
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pb.Open(th, partA.Swap(), rb); err != nil {
			t.Fatal(err)
		}
		// Re-open the sender through the corrupting path.
		pa2 := New(cfg, corrupting)
		sa2, err := pa2.Open(th, partA, &recvSink{})
		if err != nil {
			t.Fatal(err)
		}
		m := newMsg(t, th, 256)
		if err := sa2.Push(th, m); err != ErrBadChecksum {
			t.Fatalf("err = %v, want ErrBadChecksum", err)
		}
		if len(rb.msgs) != 0 {
			t.Error("corrupted datagram delivered")
		}
		if pb.Stats().ChecksumBad != 1 {
			t.Error("ChecksumBad not counted")
		}
	})
}

type corruptIP struct{ inner *fakeIP }

func (c *corruptIP) Open(t *sim.Thread, dst xkernel.IPAddr, proto uint8) (IPSession, error) {
	s, err := c.inner.Open(t, dst, proto)
	if err != nil {
		return nil, err
	}
	return &corruptSession{IPSession: s}, nil
}

type corruptSession struct{ IPSession }

func (c *corruptSession) Push(t *sim.Thread, m *msg.Message) error {
	m.Bytes()[HdrLen+10] ^= 0x40
	return c.IPSession.Push(t, m)
}

func TestComputeModeDeliversDespiteBadChecksum(t *testing.T) {
	// The paper's receivers "calculate the checksum, but ignore the
	// result" when the simulated driver sends template packets.
	run(t, func(th *sim.Thread) {
		cfg := Config{Checksum: ChecksumCompute, MapLocking: true}
		ipAB := &fakeIP{src: hostA, dst: hostB}
		ipBA := &fakeIP{src: hostB, dst: hostA}
		pa := New(cfg, &corruptIP{inner: ipAB})
		pb := New(cfg, ipBA)
		ipAB.peer = pb
		ipBA.peer = pa
		rb := &recvSink{}
		partA := xkernel.Part{LocalIP: hostA, RemoteIP: hostB, LocalPort: 1, RemotePort: 2}
		sa, err := pa.Open(th, partA, &recvSink{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pb.Open(th, partA.Swap(), rb); err != nil {
			t.Fatal(err)
		}
		m := newMsg(t, th, 128)
		if err := sa.Push(th, m); err != nil {
			t.Fatal(err)
		}
		if len(rb.msgs) != 1 {
			t.Fatal("compute mode dropped the datagram")
		}
		if pb.Stats().ChecksumBad != 1 {
			t.Error("bad checksum not counted in compute mode")
		}
	})
}

func TestNoSessionForPort(t *testing.T) {
	run(t, func(th *sim.Thread) {
		sa, _, _ := pair(t, th, ChecksumOff)
		// Replace the remote port so the peer has no binding.
		sa.rport = 7777
		m := newMsg(t, th, 64)
		if err := sa.Push(th, m); err == nil {
			t.Fatal("expected no-port error")
		}
	})
}

func TestCloseUnbinds(t *testing.T) {
	run(t, func(th *sim.Thread) {
		sa, rb, _ := pair(t, th, ChecksumOff)
		m := newMsg(t, th, 64)
		if err := sa.Push(th, m); err != nil {
			t.Fatal(err)
		}
		if len(rb.msgs) != 1 {
			t.Fatal("first datagram lost")
		}
		// Close the receiver's session; further sends must fail demux.
		// (Closing sa only affects the A side.)
		if err := sa.Close(th); err != nil {
			t.Fatal(err)
		}
		// Re-opening the same ports must now succeed on A's protocol.
	})
}

func TestChecksummingCostsTime(t *testing.T) {
	elapsed := func(mode ChecksumMode) int64 {
		e := sim.New(cost.NewModel(cost.Challenge100), 3)
		var total int64
		e.Spawn("test", 0, func(th *sim.Thread) {
			sa, _, _ := pair(t, th, mode)
			for i := 0; i < 10; i++ {
				m := newMsg(t, th, 4096)
				if err := sa.Push(th, m); err != nil {
					t.Error(err)
					return
				}
			}
			total = th.Now()
		})
		e.Run()
		return total
	}
	off, on := elapsed(ChecksumOff), elapsed(ChecksumCompute)
	// 10 packets x 4 KB x ~31 ns/B on both sides ~ 2.5 ms extra.
	if on <= off {
		t.Fatalf("checksum on (%d ns) not slower than off (%d ns)", on, off)
	}
}

func TestMSSAccountsForHeader(t *testing.T) {
	run(t, func(th *sim.Thread) {
		sa, _, _ := pair(t, th, ChecksumOff)
		if got := sa.MSS(); got != 4352-20-HdrLen {
			t.Errorf("MSS = %d, want %d", got, 4352-20-HdrLen)
		}
	})
}

func TestMultiConnectionDemux(t *testing.T) {
	// Several port pairs on one protocol instance: datagrams must land
	// on their own sessions only.
	run(t, func(th *sim.Thread) {
		cfg := Config{Checksum: ChecksumOff, MapLocking: true}
		ipAB := &fakeIP{src: hostA, dst: hostB}
		ipBA := &fakeIP{src: hostB, dst: hostA}
		pa := New(cfg, ipAB)
		pb := New(cfg, ipBA)
		ipAB.peer = pb
		ipBA.peer = pa

		const conns = 5
		var senders []*Session
		var sinks []*recvSink
		for i := 0; i < conns; i++ {
			part := xkernel.Part{
				LocalIP: hostA, RemoteIP: hostB,
				LocalPort: uint16(1000 + i), RemotePort: uint16(2000 + i),
			}
			sa, err := pa.Open(th, part, &recvSink{})
			if err != nil {
				t.Fatal(err)
			}
			sink := &recvSink{}
			if _, err := pb.Open(th, part.Swap(), sink); err != nil {
				t.Fatal(err)
			}
			senders = append(senders, sa)
			sinks = append(sinks, sink)
		}
		alloc := msg.NewAllocator(msg.DefaultConfig(4))
		for i, sa := range senders {
			for j := 0; j <= i; j++ { // connection i gets i+1 datagrams
				m, _ := alloc.New(th, 64, msg.Headroom)
				m.Bytes()[0] = byte(i)
				if err := sa.Push(th, m); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, sink := range sinks {
			if len(sink.msgs) != i+1 {
				t.Errorf("conn %d received %d datagrams, want %d", i, len(sink.msgs), i+1)
			}
			for _, m := range sink.msgs {
				if m.Bytes()[0] != byte(i) {
					t.Errorf("conn %d received conn %d's datagram", i, m.Bytes()[0])
				}
			}
		}
		if pb.DemuxMap().Stats().Resolves == 0 {
			t.Error("demux map never consulted")
		}
	})
}

// TestSessionLayout pins a session at 32 bytes, its binding pointer,
// demux link, ports and count: a million-connection stack holds a
// million of them.
func TestSessionLayout(t *testing.T) {
	if n := unsafe.Sizeof(Session{}); n != 32 {
		t.Errorf("Session is %d bytes, want 32", n)
	}
}

// TestDemuxMapIsLive: DemuxMap is the session table's own header, not a
// copy: a session opened after it was taken shows in its counters.
func TestDemuxMapIsLive(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p := New(Config{MapLocking: true}, &fakeIP{src: hostA, dst: hostB})
		dm := p.DemuxMap()
		part := xkernel.Part{LocalIP: hostA, RemoteIP: hostB, LocalPort: 1000, RemotePort: 2000}
		if _, err := p.Open(th, part, &recvSink{}); err != nil {
			t.Fatal(err)
		}
		if binds, n := dm.Stats().Binds, dm.Len(th); binds != 1 || n != 1 {
			t.Errorf("DemuxMap after one Open: %d binds, %d bindings; want 1 and 1", binds, n)
		}
	})
}
