package driver

import (
	"encoding/binary"
	"testing"

	"repro/internal/chksum"
	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/xkernel"
)

func run(t *testing.T, seed uint64, body func(th *sim.Thread)) {
	t.Helper()
	e := sim.New(cost.NewModel(cost.Challenge100), seed)
	e.Spawn("test", 0, body)
	e.Run()
}

func newAlloc() *msg.Allocator {
	return msg.NewAllocator(msg.DefaultConfig(8))
}

// captureUpper records frames injected upward by a driver.
type captureUpper struct {
	ref    sim.RefCount
	frames [][]byte
}

func newCapture() *captureUpper {
	c := &captureUpper{}
	c.ref.Init(sim.RefAtomic, 1)
	return c
}

func (c *captureUpper) Demux(t *sim.Thread, m *msg.Message) error {
	c.frames = append(c.frames, append([]byte{}, m.Bytes()...))
	m.Free(t)
	return nil
}
func (c *captureUpper) Ref() *sim.RefCount { return &c.ref }

func TestTemplatesHaveValidIPHeaders(t *testing.T) {
	for _, f := range [][]byte{
		tcpTemplate(1024, HostPeer, HostLocal, 2000, 1000, 1<<20),
		udpTemplate(1024, HostPeer, HostLocal, 2000, 1000),
	} {
		iph := f[offIP : offIP+ip.HdrLen]
		if chksum.Sum(iph) != 0 {
			t.Error("template IP header checksum invalid")
		}
		if iph[0] != 0x45 {
			t.Error("template IP version/ihl wrong")
		}
		var src, dst xkernel.IPAddr
		copy(src[:], iph[12:16])
		copy(dst[:], iph[16:20])
		if src != HostPeer || dst != HostLocal {
			t.Error("template addresses wrong")
		}
	}
}

func TestTCPTemplateParsesBack(t *testing.T) {
	f := tcpTemplate(512, HostPeer, HostLocal, 2001, 1001, 4<<20)
	patchTCPSeq(f, 12345)
	patchTCPAck(f, 678)
	sg, ok := parseFrameTCP(f)
	if !ok {
		t.Fatal("template did not parse")
	}
	if sg.SPort != 2001 || sg.DPort != 1001 {
		t.Errorf("ports %d->%d", sg.SPort, sg.DPort)
	}
	if sg.Seq != 12345 || sg.Ack != 678 {
		t.Errorf("seq/ack %d/%d", sg.Seq, sg.Ack)
	}
	if sg.DLen != 512 {
		t.Errorf("dlen = %d", sg.DLen)
	}
	if sg.Win != 4<<20 {
		t.Errorf("win = %d (32-bit windows!)", sg.Win)
	}
}

func TestUDPSinkCountsPayload(t *testing.T) {
	run(t, 1, func(th *sim.Thread) {
		a := newAlloc()
		sink := &UDPSink{}
		tmpl := udpTemplate(1024, HostLocal, HostPeer, 1000, 2000)
		for i := 0; i < 3; i++ {
			m, _ := a.New(th, len(tmpl), 0)
			m.CopyTemplate(0, tmpl)
			if err := sink.TX(th, m); err != nil {
				t.Fatal(err)
			}
		}
		if sink.Packets() != 3 || sink.Bytes() != 3*1024 {
			t.Fatalf("counted %d/%d", sink.Packets(), sink.Bytes())
		}
	})
}

// batchOfOne is what core stores for a run with batching off.
var batchOfOne = msg.BatchConfig{MaxSegs: 1}.WithDefaults()

func TestUDPSourceInjectsFrames(t *testing.T) {
	run(t, 2, func(th *sim.Thread) {
		a := newAlloc()
		src := NewUDPSource(a, 512, 2)
		up := newCapture()
		src.SetUpper(up)
		for conn := 0; conn < 2; conn++ {
			if segs, ok, err := src.PumpBatch(th, conn, nil, batchOfOne); err != nil || !ok || segs != 1 {
				t.Fatalf("conn %d: pumped %d segments, ok %v, err %v", conn, segs, ok, err)
			}
		}
		if len(up.frames) != 2 {
			t.Fatalf("injected %d frames", len(up.frames))
		}
		// Connection 1's frame addresses port 1001.
		dport := binary.BigEndian.Uint16(up.frames[1][offUDP+2:])
		if dport != 1001 {
			t.Errorf("conn 1 dport = %d", dport)
		}
	})
}

func TestSimTCPReceiverHandshakeAndAcks(t *testing.T) {
	run(t, 3, func(th *sim.Thread) {
		a := newAlloc()
		d := NewSimTCPReceiver(a, 1)
		up := newCapture()
		d.SetUpper(up)

		sendSeg := func(seq uint32, flags uint8, payload int) {
			f := tcpTemplate(payload, HostLocal, HostPeer, LocalPort(0), PeerPort(0), 1<<20)
			f[offTCP+12] = flags
			patchTCPSeq(f, seq)
			m, _ := a.New(th, len(f), 0)
			m.CopyTemplate(0, f)
			if err := d.TX(th, m); err != nil {
				t.Fatal(err)
			}
		}

		// SYN -> expect SYN|ACK injected upward.
		sendSeg(1000, tcp.FlagSYN, 0)
		if len(up.frames) != 1 {
			t.Fatalf("no SYN-ACK injected")
		}
		sa := tcp.ParseWireHeader(up.frames[0][offTCP:])
		if sa.Flags&(tcp.FlagSYN|tcp.FlagACK) != tcp.FlagSYN|tcp.FlagACK {
			t.Fatalf("reply flags = %x", sa.Flags)
		}
		if sa.Ack != 1001 {
			t.Fatalf("SYN-ACK acks %d, want 1001", sa.Ack)
		}

		// Two data segments -> exactly one ack (every other packet).
		sendSeg(1001, tcp.FlagACK|tcp.FlagPSH, 1024)
		if len(up.frames) != 1 {
			t.Fatal("acked the first data segment; should delay")
		}
		sendSeg(2025, tcp.FlagACK|tcp.FlagPSH, 1024)
		if len(up.frames) != 2 {
			t.Fatal("second data segment must trigger an ack")
		}
		ack := tcp.ParseWireHeader(up.frames[1][offTCP:])
		if ack.Ack != 1001+2048 {
			t.Fatalf("cumulative ack = %d, want %d", ack.Ack, 1001+2048)
		}
		if d.Bytes() != 2048 || d.Packets() != 2 {
			t.Fatalf("driver counted %d/%d", d.Packets(), d.Bytes())
		}
	})
}

func TestSimTCPReceiverWireOrderProbe(t *testing.T) {
	run(t, 4, func(th *sim.Thread) {
		a := newAlloc()
		d := NewSimTCPReceiver(a, 1)
		d.SetUpper(newCapture())
		send := func(seq uint32) {
			f := tcpTemplate(100, HostLocal, HostPeer, LocalPort(0), PeerPort(0), 1<<20)
			patchTCPSeq(f, seq)
			m, _ := a.New(th, len(f), 0)
			m.CopyTemplate(0, f)
			d.TX(th, m)
		}
		f := tcpTemplate(0, HostLocal, HostPeer, LocalPort(0), PeerPort(0), 1<<20)
		f[offTCP+12] = tcp.FlagSYN
		patchTCPSeq(f, 0)
		m, _ := a.New(th, len(f), 0)
		m.CopyTemplate(0, f)
		d.TX(th, m)

		send(1)   // in order
		send(101) // in order
		send(301) // gap is fine: still ascending
		send(201) // went backwards: misordered on the wire
		ooo, total := d.WireOrder()
		if total != 4 || ooo != 1 {
			t.Fatalf("wire order = %d/%d, want 1/4", ooo, total)
		}
	})
}

func TestSimTCPSenderHandshakeAndFlowControl(t *testing.T) {
	// The sender driver talks to a fake "real TCP" that answers SYN
	// with SYN-ACK at TX time.
	e := sim.New(cost.NewModel(cost.Challenge100), 5)
	a := newAlloc()
	d := NewSimTCPSender(a, 1024, 1)
	up := &synAckUpper{d: d, a: a, win: 3000}
	up.ref.Init(sim.RefAtomic, 1)
	d.SetUpper(up)
	e.Spawn("test", 0, func(th *sim.Thread) {
		if err := d.Start(th, 0); err != nil {
			t.Fatal(err)
		}
		if !d.Established(0) {
			t.Fatal("not established")
		}
		// Window is 3000: after two 1024-byte packets the third pump
		// must wait until the fake receiver acks.
		for i := 0; i < 4; i++ {
			segs, ok, err := d.PumpBatch(th, 0, nil, batchOfOne)
			if err != nil || !ok || segs != 1 {
				t.Fatalf("pump %d: segs=%d ok=%v err=%v", i, segs, ok, err)
			}
		}
		if up.data != 4 {
			t.Fatalf("delivered %d data frames", up.data)
		}
	})
	e.Run()
}

// synAckUpper plays the real TCP above the sender driver: answers SYN,
// acks every data frame (opening the window).
type synAckUpper struct {
	ref  sim.RefCount
	d    *SimTCPSender
	a    *msg.Allocator
	win  uint32
	data int
	iss  uint32
	rnxt uint32
}

func (u *synAckUpper) Ref() *sim.RefCount { return &u.ref }

func (u *synAckUpper) Demux(t *sim.Thread, m *msg.Message) error {
	b, _ := m.Peek(m.Len())
	sg, ok := parseFrameTCP(b)
	m.Free(t)
	if !ok {
		return nil
	}
	reply := func(flags uint8, seq, ack uint32) error {
		f := tcpTemplate(0, HostLocal, HostPeer, sg.DPort, sg.SPort, u.win)
		f[offTCP+12] = flags
		patchTCPSeq(f, seq)
		patchTCPAck(f, ack)
		rm, _ := u.a.New(t, len(f), 0)
		rm.CopyTemplate(0, f)
		return u.d.TX(t, rm)
	}
	switch {
	case sg.Flags&tcp.FlagSYN != 0:
		u.iss = 7000
		u.rnxt = sg.Seq + 1
		return reply(tcp.FlagSYN|tcp.FlagACK, u.iss, u.rnxt)
	case sg.DLen > 0:
		u.data++
		u.rnxt = sg.Seq + uint32(sg.DLen)
		return reply(tcp.FlagACK, u.iss+1, u.rnxt)
	}
	return nil
}

// TestSharedTemplatesCarryEachConnectionsPorts: each peer keeps one frame
// template for all its connections, so every frame it builds must get
// its own connection's port pair: data and control frames from the two
// sources, acknowledgements from the TCP receiver.
func TestSharedTemplatesCarryEachConnectionsPorts(t *testing.T) {
	const conn = 2 // of three: neither the template's connection nor conn%2
	wantPorts := func(what string, frame []byte) {
		t.Helper()
		sport, dport := binary.BigEndian.Uint16(frame[offTCP:]), binary.BigEndian.Uint16(frame[offTCP+2:])
		if sport != PeerPort(conn) || dport != LocalPort(conn) {
			t.Errorf("%s: ports %d->%d, want %d->%d", what, sport, dport, PeerPort(conn), LocalPort(conn))
		}
	}
	run(t, 6, func(th *sim.Thread) {
		a := newAlloc()

		src := NewUDPSource(a, 512, 3)
		up := newCapture()
		src.SetUpper(up)
		if _, _, err := src.PumpBatch(th, conn, nil, batchOfOne); err != nil {
			t.Fatal(err)
		}
		wantPorts("udp source datagram", up.frames[0])

		snd := NewSimTCPSender(a, 512, 3)
		up = newCapture()
		snd.SetUpper(up)
		if err := snd.Start(th, conn); err != nil {
			t.Fatal(err)
		}
		synAck := tcpTemplate(0, HostLocal, HostPeer, LocalPort(conn), PeerPort(conn), 1<<20)
		synAck[offTCP+12] = tcp.FlagSYN | tcp.FlagACK
		patchTCPAck(synAck, snd.conns[conn].iss+1)
		m, _ := a.New(th, len(synAck), 0)
		m.CopyTemplate(0, synAck)
		if err := snd.TX(th, m); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := snd.PumpBatch(th, conn, nil, batchOfOne); err != nil || !ok {
			t.Fatalf("pump: ok %v, err %v", ok, err)
		}
		if len(up.frames) != 3 {
			t.Fatalf("tcp sender injected %d frames, want SYN, ACK and one data segment", len(up.frames))
		}
		for i, what := range []string{"tcp sender SYN", "tcp sender ACK", "tcp sender data"} {
			wantPorts(what, up.frames[i])
		}

		rcv := NewSimTCPReceiver(a, 3)
		up = newCapture()
		rcv.SetUpper(up)
		syn := tcpTemplate(0, HostLocal, HostPeer, LocalPort(conn), PeerPort(conn), 1<<20)
		syn[offTCP+12] = tcp.FlagSYN
		m, _ = a.New(th, len(syn), 0)
		m.CopyTemplate(0, syn)
		if err := rcv.TX(th, m); err != nil {
			t.Fatal(err)
		}
		wantPorts("tcp receiver SYN-ACK", up.frames[0])
	})
}
