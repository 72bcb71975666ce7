package tcp

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/cost"
	"repro/internal/event"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
	"repro/internal/xmap"
)

var (
	hostA = xkernel.IPAddr{10, 0, 0, 1}
	hostB = xkernel.IPAddr{10, 0, 0, 2}
)

// verdict is what the test wire does with one A->B data segment.
type verdict int

const (
	pass    verdict = iota // deliver it now
	drop                   // free it
	hold                   // queue it until release
	dup                    // deliver it, then a clone of it
	corrupt                // deliver a damaged private copy
)

// wire connects two TCP protocol instances back to back. Handshake
// segments, pure acks and all B->A traffic pass straight through; each
// A->B data segment, retransmissions included, goes to onData, whose
// verdict says what the wire does with it. A wire with no peer frees
// every frame pushed into it.
type wire struct {
	a2b *Protocol // delivers A's pushes into B
	b2a *Protocol

	// onData judges the nth (1-based) A->B data segment; nil passes
	// every one.
	onData   func(n int) verdict
	dataSeen int
	held     []*msg.Message

	alloc *msg.Allocator // corrupted copies come from here
	rng   *sim.Rand      // picks the corrupted bit
}

// wireSession is one end's IP session onto the wire, and its own
// opener: every Open returns the same stateless session.
type wireSession struct {
	w        *wire
	src, dst xkernel.IPAddr
	toB      bool
	mss      int
}

func (s *wireSession) Open(t *sim.Thread, dst xkernel.IPAddr, proto uint8) (IPSession, error) {
	return s, nil
}

func (s *wireSession) Push(t *sim.Thread, m *msg.Message) error {
	m.SrcAddr = s.src
	m.DstAddr = s.dst
	w := s.w
	to := w.b2a
	if s.toB {
		to = w.a2b
	}
	switch {
	case to == nil:
		m.Free(t)
		return nil
	case !s.toB || m.Len() <= HdrLen || w.onData == nil:
		return to.Demux(t, m)
	}
	w.dataSeen++
	switch w.onData(w.dataSeen) {
	case drop:
		m.Free(t)
		return nil
	case hold:
		w.held = append(w.held, m)
		return nil
	case dup:
		d := m.Clone(t)
		if err := to.Demux(t, m); err != nil {
			d.Free(t)
			return err
		}
		return to.Demux(t, d)
	case corrupt:
		return w.deliverCorrupted(t, m)
	}
	return to.Demux(t, m)
}

func (s *wireSession) Close(t *sim.Thread) error { return nil }
func (s *wireSession) Src() xkernel.IPAddr       { return s.src }
func (s *wireSession) Dst() xkernel.IPAddr       { return s.dst }
func (s *wireSession) MSS() int                  { return s.mss }

// release delivers the held segments to B in the order perm gives (nil:
// the order they arrived in).
func (w *wire) release(t *sim.Thread, perm []int) error {
	held := w.held
	w.held = nil
	for i := range held {
		if perm != nil {
			i = perm[i]
		}
		if err := w.a2b.Demux(t, held[i]); err != nil {
			return err
		}
	}
	return nil
}

// deliverCorrupted damages a privately owned copy of the segment — the
// original's buffer is shared with A's retransmission queue — and
// swallows the receiver's checksum rejection, exactly as the driver
// fault wire does.
func (w *wire) deliverCorrupted(t *sim.Thread, m *msg.Message) error {
	b, err := m.Peek(m.Len())
	if err != nil {
		m.Free(t)
		return err
	}
	c, err := w.alloc.New(t, len(b), 0)
	if err != nil {
		m.Free(t)
		return err
	}
	if err := c.CopyTemplate(0, b); err != nil {
		c.Free(t)
		m.Free(t)
		return err
	}
	c.SrcAddr = m.SrcAddr
	c.DstAddr = m.DstAddr
	m.Free(t)
	cb, _ := c.Peek(c.Len())
	// Flip one payload bit and stamp a nonzero bogus checksum (zero
	// would read as "sender did not checksum" and pass).
	cb[HdrLen+w.rng.Intn(len(cb)-HdrLen)] ^= 1 << uint(w.rng.Intn(8))
	bad := uint16(cb[18])<<8 | uint16(cb[19])
	bad ^= 0xBAD1
	if bad == 0 {
		bad = 0x1BAD
	}
	cb[18], cb[19] = byte(bad>>8), byte(bad)
	if err := w.a2b.Demux(t, c); err != ErrBadChecksum {
		return err
	}
	return nil
}

// nth is an onData that gives the nth data segment verdict v and
// passes the rest.
func nth(n int, v verdict) func(int) verdict {
	return func(i int) verdict {
		if i == n {
			return v
		}
		return pass
	}
}

// always is an onData with one verdict for every data segment.
func always(v verdict) func(int) verdict { return func(int) verdict { return v } }

// recvSink keeps every delivered payload, and every ticket.
type recvSink struct {
	payloads [][]byte
	tickets  []uint64
}

// stream is the delivered byte stream.
func (r *recvSink) stream() []byte { return bytes.Join(r.payloads, nil) }

func (r *recvSink) Receive(t *sim.Thread, m *msg.Message) error {
	r.payloads = append(r.payloads, append([]byte{}, m.Bytes()...))
	if m.Ticketed {
		r.tickets = append(r.tickets, m.Ticket)
	}
	m.Free(t)
	return nil
}

// harness bundles a connected pair of TCPs.
type harness struct {
	w      *wire
	pa, pb *Protocol
	sink   *recvSink
	tcbA   *TCB // active opener (client, the sender in tests)
	tcbB   *TCB // passive (server)
	wheel  *event.Wheel
	alloc  *msg.Allocator
}

// connect builds two TCP instances on w, sharing one allocator: A's
// pushes go to B and B's to A.
func connect(cfg Config, w *wire, wheel *event.Wheel) (pa, pb *Protocol) {
	w.alloc = msg.NewAllocator(msg.DefaultConfig(8))
	pa = New(cfg, &wireSession{w: w, src: hostA, dst: hostB, toB: true, mss: 4352 - 20}, w.alloc, wheel)
	pb = New(cfg, &wireSession{w: w, src: hostB, dst: hostA, mss: 4352 - 20}, w.alloc, wheel)
	w.a2b, w.b2a = pb, pa
	return pa, pb
}

// build wires up two TCP instances and completes the handshake.
func build(t *testing.T, th *sim.Thread, cfg Config, w *wire, wheel *event.Wheel) *harness {
	t.Helper()
	pa, pb := connect(cfg, w, wheel)
	sink := &recvSink{}
	part := xkernel.Part{LocalIP: hostA, RemoteIP: hostB, LocalPort: 1000, RemotePort: 2000}
	tcbB, err := pb.OpenEnable(th, part.Swap(), sink)
	if err != nil {
		t.Fatal(err)
	}
	if wheel != nil {
		pa.StartTimers(th)
		pb.StartTimers(th)
	}
	tcbA, err := pa.Open(th, part, &recvSink{})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{w: w, pa: pa, pb: pb, sink: sink, tcbA: tcbA, tcbB: tcbB, wheel: wheel, alloc: w.alloc}
}

func run1(t *testing.T, seed uint64, body func(th *sim.Thread)) {
	t.Helper()
	e := sim.New(cost.NewModel(cost.Challenge100), seed)
	e.Spawn("test", 0, body)
	e.Run()
}

func (h *harness) send(t *testing.T, th *sim.Thread, payload []byte) {
	t.Helper()
	m, err := h.alloc.New(th, len(payload), msg.Headroom)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CopyIn(th, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := h.tcbA.Push(th, m); err != nil {
		t.Fatal(err)
	}
}

func pattern(n int, k byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*k + k
	}
	return b
}

func configs() []Config {
	base := DefaultConfig()
	base.Checksum = ChecksumEnforce
	l2 := base
	l2.Layout = Layout2
	l6 := base
	l6.Layout = Layout6
	mcs := base
	mcs.Kind = sim.KindMCS
	return []Config{base, l2, l6, mcs}
}

func cfgName(c Config) string {
	return fmt.Sprintf("%v-%v", c.Layout, c.Kind)
}

func TestHandshakeEstablishesBothEnds(t *testing.T) {
	for _, cfg := range configs() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			run1(t, 1, func(th *sim.Thread) {
				h := build(t, th, cfg, &wire{}, nil)
				if !h.tcbA.Established() || !h.tcbB.Established() {
					t.Fatalf("states: A=%s B=%s", h.tcbA.State(), h.tcbB.State())
				}
			})
		})
	}
}

func TestInOrderDataDelivery(t *testing.T) {
	for _, cfg := range configs() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			run1(t, 2, func(th *sim.Thread) {
				h := build(t, th, cfg, &wire{}, nil)
				for i := 0; i < 5; i++ {
					h.send(t, th, pattern(1024, byte(i+1)))
				}
				if len(h.sink.payloads) != 5 {
					t.Fatalf("delivered %d, want 5", len(h.sink.payloads))
				}
				for i, p := range h.sink.payloads {
					want := pattern(1024, byte(i+1))
					if len(p) != 1024 {
						t.Fatalf("msg %d len %d", i, len(p))
					}
					for j := range p {
						if p[j] != want[j] {
							t.Fatalf("msg %d byte %d: %d != %d", i, j, p[j], want[j])
						}
					}
				}
			})
		})
	}
}

func TestLargePushSegmentsToMSS(t *testing.T) {
	run1(t, 3, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumEnforce
		h := build(t, th, cfg, &wire{}, nil)
		// MSS is 4352-20-24 = 4308; push 3 segments' worth. Note the
		// message tool's largest class is 8192, so stay under it.
		payload := pattern(8000, 3)
		h.send(t, th, payload)
		var got []byte
		for _, p := range h.sink.payloads {
			got = append(got, p...)
		}
		if len(got) != 8000 {
			t.Fatalf("reassembled %d bytes, want 8000", len(got))
		}
		for i := range got {
			if got[i] != payload[i] {
				t.Fatalf("byte %d mismatch", i)
			}
		}
		if len(h.sink.payloads) < 2 {
			t.Fatalf("expected >= 2 segments, got %d", len(h.sink.payloads))
		}
	})
}

func TestOutOfOrderArrivalReassembled(t *testing.T) {
	for _, cfg := range configs() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			run1(t, 4, func(th *sim.Thread) {
				h := build(t, th, cfg, &wire{onData: nth(1, hold)}, nil)
				h.send(t, th, pattern(512, 1))
				h.send(t, th, pattern(512, 2))
				if err := h.w.release(th, nil); err != nil {
					t.Fatal(err)
				}
				if len(h.sink.payloads) != 2 {
					t.Fatalf("delivered %d, want 2", len(h.sink.payloads))
				}
				// Delivery order must be sequence order despite the
				// reordered wire.
				if h.sink.payloads[0][0] != 1 || h.sink.payloads[1][0] != 2 {
					t.Fatalf("delivered out of order: %d, %d",
						h.sink.payloads[0][0], h.sink.payloads[1][0])
				}
				ooo, data := h.tcbB.OOOStats()
				if data != 2 || ooo != 1 {
					t.Errorf("OOO stats = %d/%d, want 1/2", ooo, data)
				}
			})
		})
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	e := sim.New(cost.NewModel(cost.Challenge100), 5)
	wheel := event.New()
	wheel.Start(e, 0)
	e.Spawn("test", 1, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumEnforce
		h := build(t, th, cfg, &wire{onData: nth(2, drop)}, wheel)
		for i := 0; i < 4; i++ {
			h.send(t, th, pattern(256, byte(i+1)))
		}
		// Segment 2 was dropped; the retransmission timer must resend
		// it. Give the slow timer a few ticks.
		th.Sleep(8_000_000_000)
		if len(h.sink.payloads) != 4 {
			t.Fatalf("delivered %d, want 4 after retransmission", len(h.sink.payloads))
		}
		for i, p := range h.sink.payloads {
			if p[0] != byte(i+1) {
				t.Fatalf("delivery %d has first byte %d", i, p[0])
			}
		}
		if h.pa.Stats().Rexmt+h.pa.Stats().FastRexmt == 0 {
			t.Error("no retransmission counted")
		}
		h.pa.StopTimers()
		h.pb.StopTimers()
		wheel.Stop()
	})
	e.Run()
}

func TestDelayedAckFlushedByFastTimer(t *testing.T) {
	e := sim.New(cost.NewModel(cost.Challenge100), 6)
	wheel := event.New()
	wheel.Start(e, 0)
	e.Spawn("test", 1, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumEnforce
		h := build(t, th, cfg, &wire{}, wheel)
		// One segment: receiver defers its ack (AckEvery=2); the fast
		// timer must flush it, advancing the sender's sndUna.
		h.send(t, th, pattern(256, 9))
		th.Sleep(1_000_000_000)
		h.tcbA.lockAll(th)
		caught := h.tcbA.sndUna == h.tcbA.sndNxt
		h.tcbA.unlockAll(th)
		if !caught {
			t.Error("delayed ack never flushed")
		}
		h.pa.StopTimers()
		h.pb.StopTimers()
		wheel.Stop()
	})
	e.Run()
}

func TestCloseHandshake(t *testing.T) {
	run1(t, 7, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumEnforce
		h := build(t, th, cfg, &wire{}, nil)
		h.send(t, th, pattern(128, 1))
		if err := h.tcbA.Close(th); err != nil {
			t.Fatal(err)
		}
		// B saw the FIN: CLOSE_WAIT; B closes too: LAST_ACK -> CLOSED.
		if h.tcbB.State() != "CLOSE_WAIT" {
			t.Fatalf("B state = %s, want CLOSE_WAIT", h.tcbB.State())
		}
		if err := h.tcbB.Close(th); err != nil {
			t.Fatal(err)
		}
		if h.tcbB.State() != "CLOSED" {
			t.Errorf("B state = %s, want CLOSED", h.tcbB.State())
		}
		if h.tcbA.State() != "TIME_WAIT" {
			t.Errorf("A state = %s, want TIME_WAIT", h.tcbA.State())
		}
		// Data after close must fail.
		m, _ := h.alloc.New(th, 64, msg.Headroom)
		if err := h.tcbA.Push(th, m); err != ErrClosed {
			t.Errorf("push after close: %v, want ErrClosed", err)
		}
	})
}

func TestTicketingAssignsSequentialTickets(t *testing.T) {
	run1(t, 8, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumEnforce
		cfg.Ticketing = true
		h := build(t, th, cfg, &wire{}, nil)
		for i := 0; i < 6; i++ {
			h.send(t, th, pattern(128, byte(i+1)))
		}
		if len(h.sink.tickets) != 6 {
			t.Fatalf("ticketed %d, want 6", len(h.sink.tickets))
		}
		for i, k := range h.sink.tickets {
			if k != uint64(i) {
				t.Fatalf("tickets = %v, want 0..5 in order", h.sink.tickets)
			}
		}
	})
}

func TestAssumeInOrderSkipsReassembly(t *testing.T) {
	run1(t, 9, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumOff
		cfg.AssumeInOrder = true
		h := build(t, th, cfg, &wire{onData: nth(1, hold)}, nil)
		h.send(t, th, pattern(512, 1))
		h.send(t, th, pattern(512, 2))
		if err := h.w.release(th, nil); err != nil {
			t.Fatal(err)
		}
		// Both segments must be delivered (bytes counted), even though
		// real ordering was violated — this TCP pretends everything is
		// in order.
		if len(h.sink.payloads) != 2 {
			t.Fatalf("delivered %d, want 2", len(h.sink.payloads))
		}
		// The misordering is still *observed* by the instrumentation
		// (both segments mismatch the artificially advanced rcv_nxt in
		// this mode).
		ooo, _ := h.tcbB.OOOStats()
		if ooo == 0 {
			t.Error("instrumentation saw no misordering")
		}
	})
}

func TestChecksumEnforceDropsCorruptSegment(t *testing.T) {
	run1(t, 10, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumEnforce
		h := build(t, th, cfg, &wire{}, nil)
		// Build a raw segment with a bad checksum and inject it.
		m, _ := h.alloc.New(th, 64, msg.Headroom)
		m.SrcAddr = hostA
		m.DstAddr = hostB
		hd, _ := m.Push(th, HdrLen)
		putHeader(hd, 1000, 2000, 12345, 0, FlagACK, 0)
		hd[18], hd[19] = 0xde, 0xad
		if err := h.pb.Demux(th, m); err != ErrBadChecksum {
			t.Fatalf("err = %v, want ErrBadChecksum", err)
		}
		if h.pb.Stats().ChecksumBad != 1 {
			t.Error("ChecksumBad not counted")
		}
	})
}

func TestNoConnectionDrops(t *testing.T) {
	run1(t, 11, func(th *sim.Thread) {
		cfg := DefaultConfig()
		h := build(t, th, cfg, &wire{}, nil)
		m, _ := h.alloc.New(th, 0, msg.Headroom)
		m.SrcAddr = hostA
		m.DstAddr = hostB
		hd, _ := m.Push(th, HdrLen)
		putHeader(hd, 1, 2, 0, 0, FlagACK, 0) // unbound port pair
		if err := h.pb.Demux(th, m); err == nil {
			t.Fatal("expected demux failure")
		}
		if h.pb.Stats().Dropped == 0 {
			t.Error("drop not counted")
		}
	})
}

func TestHeaderPredictionCountsFastPath(t *testing.T) {
	run1(t, 12, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumOff
		h := build(t, th, cfg, &wire{}, nil)
		for i := 0; i < 10; i++ {
			h.send(t, th, pattern(1024, 1))
		}
		if h.pb.Stats().Predicted < 8 {
			t.Errorf("predicted = %d, want >= 8 of 10 in-order segments",
				h.pb.Stats().Predicted)
		}
	})
}

func TestNoHeaderPredictionStillDelivers(t *testing.T) {
	run1(t, 13, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumOff
		cfg.NoHeaderPrediction = true
		h := build(t, th, cfg, &wire{}, nil)
		for i := 0; i < 4; i++ {
			h.send(t, th, pattern(1024, byte(i+1)))
		}
		if len(h.sink.payloads) != 4 {
			t.Fatalf("delivered %d, want 4", len(h.sink.payloads))
		}
		if h.pb.Stats().Predicted != 0 {
			t.Errorf("predicted = %d with prediction disabled", h.pb.Stats().Predicted)
		}
	})
}

func TestWindowLimitsOutstandingData(t *testing.T) {
	// With a tiny window, a second push must block until the first is
	// acked; with delayed acks flushed by the fast timer this resolves
	// rather than deadlocks.
	e := sim.New(cost.NewModel(cost.Challenge100), 14)
	wheel := event.New()
	wheel.Start(e, 0)
	e.Spawn("test", 1, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumOff
		cfg.Window = 600 // one 512-byte segment in flight at most
		h := build(t, th, cfg, &wire{}, wheel)
		start := th.Now()
		for i := 0; i < 4; i++ {
			h.send(t, th, pattern(512, byte(i+1)))
		}
		if len(h.sink.payloads) != 4 {
			t.Fatalf("delivered %d, want 4", len(h.sink.payloads))
		}
		// At least one fast-timer wait (200 ms) must have elapsed,
		// proving the window actually blocked the sender.
		if th.Now()-start < 100_000_000 {
			t.Errorf("sends finished in %d ns; window never blocked", th.Now()-start)
		}
		h.pa.StopTimers()
		h.pb.StopTimers()
		wheel.Stop()
	})
	e.Run()
}

func TestStateLockStatsAccumulate(t *testing.T) {
	run1(t, 15, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumOff
		h := build(t, th, cfg, &wire{}, nil)
		for i := 0; i < 10; i++ {
			h.send(t, th, pattern(512, 1))
		}
		if h.tcbB.StateLockStats().Acquires == 0 {
			t.Error("receive-side state lock never acquired")
		}
		if h.tcbA.StateLockStats().Acquires == 0 {
			t.Error("send-side state lock never acquired")
		}
	})
}

func TestThirty2BitWindowAdvertised(t *testing.T) {
	run1(t, 16, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumOff
		cfg.Window = 1 << 20 // far beyond a 16-bit field
		h := build(t, th, cfg, &wire{}, nil)
		h.tcbA.lockAll(th)
		w := h.tcbA.sndWnd
		h.tcbA.unlockAll(th)
		if w != 1<<20 {
			t.Fatalf("sender sees peer window %d, want %d (32-bit windows)", w, 1<<20)
		}
	})
}

// TestDemuxMapIsLive: DemuxMap is the connection table's own header, not
// a copy: the connections opened after it was taken show in its
// counters, at both ends.
func TestDemuxMapIsLive(t *testing.T) {
	run1(t, 1, func(th *sim.Thread) {
		pa, pb := connect(configs()[0], &wire{}, nil)
		da, db := pa.DemuxMap(), pb.DemuxMap()
		part := xkernel.Part{LocalIP: hostA, RemoteIP: hostB, LocalPort: 1000, RemotePort: 2000}
		if _, err := pb.OpenEnable(th, part.Swap(), &recvSink{}); err != nil {
			t.Fatal(err)
		}
		if _, err := pa.Open(th, part, &recvSink{}); err != nil {
			t.Fatal(err)
		}
		for end, dm := range map[string]*xmap.Map{"active": da, "passive": db} {
			if st, n := dm.Stats(), dm.Len(th); st.Binds != 1 || st.Resolves == 0 || n != 1 {
				t.Errorf("%s end's DemuxMap after the handshake: %+v, %d bindings; want 1 bind, some resolves, 1 binding", end, st, n)
			}
		}
	})
}

// TestTCBLayout: the demux link is the TCB's last field, and the TCB
// stays in its 896 B size class (769-896 B): a million-connection stack
// holds a million of them.
func TestTCBLayout(t *testing.T) {
	var tcb TCB
	if n := unsafe.Sizeof(tcb); n <= 768 || n > 896 {
		t.Errorf("TCB is %d bytes, want 769-896, the 896 B size class", n)
	}
	if off := unsafe.Offsetof(tcb.link); off+unsafe.Sizeof(tcb.link) != unsafe.Sizeof(tcb) {
		t.Errorf("the demux link sits at %d of %d bytes, want last", off, unsafe.Sizeof(tcb))
	}
}

// TestRecycledTCBStartsUnlinked: a block from the free list starts with
// a zero demux link, whatever its last incarnation's link held, so
// binding it never chains the connections its predecessor followed.
func TestRecycledTCBStartsUnlinked(t *testing.T) {
	run1(t, 1, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Buckets = 1 // one chain: the newer TCB links to the older
		p, tcbs := NewBench(th, cfg, msg.NewAllocator(msg.DefaultConfig(1)), 2)
		if tcbs[1].link == (xmap.Link[*TCB]{}) {
			t.Fatal("the newer of two TCBs on one chain has a zero link")
		}
		p.recycleTCB(tcbs[1])
		part := xkernel.Part{LocalIP: hostA, RemoteIP: hostB, LocalPort: 7, RemotePort: 8}
		tcb := newTCB(p, part, tcbs[0].lower, benchSink{})
		if tcb != tcbs[1] {
			t.Fatal("newTCB did not take the block from the free list")
		}
		if tcb.link != (xmap.Link[*TCB]{}) {
			t.Error("a recycled TCB starts with its predecessor's demux link")
		}
	})
}
