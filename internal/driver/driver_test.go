package driver

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chksum"
	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/workload"
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

// TestUDPSourceRefusesTX: the receive side transmits nothing, so a
// frame handed to the source is an error, and freed.
func TestUDPSourceRefusesTX(t *testing.T) {
	run(t, 2, func(th *sim.Thread) {
		a := newAlloc()
		src := NewUDPSource(a, 512, 1)
		m, _ := a.New(th, 64, 0)
		if err := src.TX(th, m); err == nil {
			t.Error("TX accepted a frame")
		}
		if frees := a.Stats().Frees; frees != 1 {
			t.Errorf("%d frees after the refused TX, want 1", frees)
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

// TestSimTCPSenderRoutesByPorts: the sender finds an outbound frame's
// connection from its port pair, past the local port's wrap too, and
// refuses a pair no connection of its own uses.
func TestSimTCPSenderRoutesByPorts(t *testing.T) {
	const n = 1<<16 + 3
	run(t, 4, func(th *sim.Thread) {
		a := newAlloc()
		d := NewSimTCPSender(a, 1024, n)
		d.SetUpper(newCapture())
		synAck := func(local, peer uint16) error {
			f := tcpTemplate(0, HostLocal, HostPeer, local, peer, 4096)
			f[offTCP+12] = tcp.FlagSYN | tcp.FlagACK
			m, _ := a.New(th, len(f), 0)
			m.CopyTemplate(0, f)
			return d.TX(th, m)
		}
		conns := []int{0, 7, 1<<16 - 1, 1 << 16, n - 1}
		for _, i := range conns {
			if err := synAck(LocalPort(i), PeerPort(i)); err != nil || !d.Established(i) {
				t.Fatalf("connection %d: established %v, err %v", i, d.Established(i), err)
			}
		}
		established := 0
		for i := 0; i < n; i++ {
			if d.Established(i) {
				established++
			}
		}
		if established != len(conns) {
			t.Errorf("%d connections established by %d SYN-ACKs", established, len(conns))
		}
		for _, pair := range [][2]uint16{{LocalPort(n), PeerPort(n)}, {LocalPort(3), PeerPort(5)}, {5000, 100}} {
			if err := synAck(pair[0], pair[1]); err == nil || !strings.Contains(err.Error(), "unknown connection") {
				t.Errorf("ports %d->%d: err %v, want unknown connection", pair[0], pair[1], err)
			}
		}
	})
}

// TestSimTCPReceiverRoutesByPorts: the receiver finds a segment's
// connection by inverting its ports, as the sender does, and refuses a
// pair that names none.
func TestSimTCPReceiverRoutesByPorts(t *testing.T) {
	const n = 1<<16 + 3
	run(t, 4, func(th *sim.Thread) {
		a := newAlloc()
		d := NewSimTCPReceiver(a, n)
		up := newCapture()
		d.SetUpper(up)
		syn := func(local, peer uint16) error {
			f := tcpTemplate(0, HostLocal, HostPeer, local, peer, 4096)
			f[offTCP+12] = tcp.FlagSYN
			m, _ := a.New(th, len(f), 0)
			m.CopyTemplate(0, f)
			return d.TX(th, m)
		}
		for _, i := range []int{0, 7, 1<<16 - 1, 1 << 16, n - 1} {
			if err := syn(LocalPort(i), PeerPort(i)); err != nil || !d.conns[i].started {
				t.Fatalf("connection %d: started %v, err %v", i, d.conns[i].started, err)
			}
		}
		if len(up.frames) != 5 {
			t.Errorf("%d SYN-ACKs for 5 SYNs", len(up.frames))
		}
		for _, pair := range [][2]uint16{{LocalPort(n), PeerPort(n)}, {LocalPort(3), PeerPort(5)}, {5000, 100}} {
			if err := syn(pair[0], pair[1]); err == nil || !strings.Contains(err.Error(), "unknown connection") {
				t.Errorf("ports %d->%d: err %v, want unknown connection", pair[0], pair[1], err)
			}
		}
	})
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
// sources, pumped and steered, acknowledgements from the TCP receiver. A
// steered arrival's payload also carries its workload stamp.
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
		m, err := src.Arrive(th, workload.Arrival{Conn: conn, Seq: 41, Gen: 3}, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantPorts("udp source steered arrival", m.Bytes())
		if c, seq, gen := workload.DecodeStamp(m.Bytes()[udpFrameHdr:]); c != conn || seq != 41 || gen != 3 {
			t.Errorf("steered arrival stamp decodes to (%d, %d, %d), want (%d, 41, 3)", c, seq, gen, conn)
		}
		m.Free(th)

		snd := NewSimTCPSender(a, 512, 3)
		up = newCapture()
		snd.SetUpper(up)
		if err := snd.Start(th, conn); err != nil {
			t.Fatal(err)
		}
		synAck := tcpTemplate(0, HostLocal, HostPeer, LocalPort(conn), PeerPort(conn), 1<<20)
		synAck[offTCP+12] = tcp.FlagSYN | tcp.FlagACK
		patchTCPAck(synAck, snd.conns[conn].iss+1)
		m, _ = a.New(th, len(synAck), 0)
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

// TestSteeredNICTakesNoRingLock: one UDPSource serves the pumps and the
// steered NIC, which charge differently. A pumped datagram passes the
// adaptor ring lock once, merged ones included; the NIC owns its ring,
// so a steered arrival never takes the lock and is counted as produced.
func TestSteeredNICTakesNoRingLock(t *testing.T) {
	run(t, 7, func(th *sim.Thread) {
		a := newAlloc()
		src := NewUDPSource(a, 1024, 4)
		up := newCapture()
		src.SetUpper(up)
		bc := msg.BatchConfig{Enabled: true, MaxSegs: 4}.WithDefaults()
		pumped := int64(0)
		for conn := 0; conn < 3; conn++ {
			segs, ok, err := src.PumpBatch(th, conn, nil, bc)
			if err != nil || !ok {
				t.Fatalf("pump %d: ok %v, err %v", conn, ok, err)
			}
			pumped += int64(segs)
		}
		if got := src.ring.Stats().Acquires; pumped < 3 || got != pumped {
			t.Fatalf("%d datagrams pumped took the ring lock %d times, want once each", pumped, got)
		}
		head, err := src.Arrive(th, workload.Arrival{Conn: 1}, src.BatchGrow(bc))
		if err != nil {
			t.Fatal(err)
		}
		for seq := int64(1); seq < 4; seq++ {
			d, err := src.Arrive(th, workload.Arrival{Conn: 1, Seq: seq}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := MergeUDP(th, head, d); err != nil {
				t.Fatal(err)
			}
		}
		if err := src.Inject(th, head); err != nil {
			t.Fatal(err)
		}
		if got := src.ring.Stats().Acquires; got != pumped {
			t.Errorf("steered arrivals took the ring lock %d times", got-pumped)
		}
		if frames, bytes := src.Produced(); frames != 4 || bytes != 4*int64(len(src.tmpl)) {
			t.Errorf("the NIC counts %d frames, %d bytes; want 4 of %d bytes", frames, bytes, len(src.tmpl))
		}
	})
}

// TestSimTCPSenderPumpErrorComesWithTrue: a failure inside PumpBatch
// comes back with ok true, as every pump step's does, so a pump cannot
// read it as "stopped". Here the failure is the inject of a timeout
// resend, from Produce waiting on a window the receiver never reopens.
func TestSimTCPSenderPumpErrorComesWithTrue(t *testing.T) {
	e := sim.New(cost.NewModel(cost.Challenge100), 8)
	a := newAlloc()
	d := NewSimTCPSender(a, 1024, 1)
	d.FaultRecovery = true
	hs := &synAckUpper{d: d, a: a, win: 2048}
	hs.ref.Init(sim.RefAtomic, 1)
	d.SetUpper(hs)
	e.Spawn("test", 0, func(th *sim.Thread) {
		if err := d.Start(th, 0); err != nil || !d.Established(0) {
			t.Fatalf("handshake: established %v, err %v", d.Established(0), err)
		}
		silent := &failAfterUpper{n: 2} // swallows the window's two segments unacked, then fails
		silent.ref.Init(sim.RefAtomic, 1)
		d.SetUpper(silent)
		for i := 0; i < 2; i++ {
			if _, ok, err := d.PumpBatch(th, 0, nil, batchOfOne); err != nil || !ok {
				t.Fatalf("pump %d: ok %v, err %v", i, ok, err)
			}
		}
		segs, ok, err := d.PumpBatch(th, 0, nil, batchOfOne)
		if !errors.Is(err, errUpper) || !ok || segs != 0 {
			t.Fatalf("pump over a failing resend: segs %d, ok %v, err %v; want 0, true and the failure", segs, ok, err)
		}
		if dup, to := d.Rexmts(); dup != 0 || to != 1 {
			t.Errorf("resends: %d on duplicate acks, %d on timeout; want 0 and 1", dup, to)
		}
	})
	e.Run()
}

var errUpper = errors.New("upper layer failed")

// failAfterUpper consumes frames without answering and fails every one
// after its nth.
type failAfterUpper struct {
	ref   sim.RefCount
	n     int
	calls int
}

func (u *failAfterUpper) Ref() *sim.RefCount { return &u.ref }

func (u *failAfterUpper) Demux(t *sim.Thread, m *msg.Message) error {
	m.Free(t)
	if u.calls++; u.calls > u.n {
		return errUpper
	}
	return nil
}

// copyTemplateCeiling is the most CopyTemplate calls this package's
// sources may hold: one data-frame builder, one control-frame builder
// and the fault wire's corrupted copy. The ceiling follows the count
// down, so no peer grows its own frame path again.
const copyTemplateCeiling = 3

func TestCopyTemplateRatchet(t *testing.T) {
	paths, _ := filepath.Glob("*.go")
	n := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n += strings.Count(string(src), "CopyTemplate(")
	}
	switch {
	case n > copyTemplateCeiling:
		t.Errorf("%d CopyTemplate calls in internal/driver, above the ceiling of %d: build frames with newFrame or control", n, copyTemplateCeiling)
	case n < copyTemplateCeiling:
		t.Logf("%d CopyTemplate calls, below the ceiling of %d: lower copyTemplateCeiling", n, copyTemplateCeiling)
	}
}
