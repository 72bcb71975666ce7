// Package driver implements the in-memory device drivers of Section 2.3:
// since the platform runs in user space, a simulated driver replaces the
// FDDI adaptor. The drivers act as senders or receivers, producing or
// consuming packets as fast as possible, to simulate the behaviour of a
// simplex data transfer over an error-free network.
//
// To minimize execution time and experimental perturbation, the
// receive-side drivers use preconstructed packet templates and do not
// calculate TCP and UDP checksums. The simulated TCP receiver
// acknowledges every other packet, mimicking Net/2 TCP talking to
// itself, and "borrows" the stack of a calling thread to send an
// acknowledgement back up.
package driver

import (
	"encoding/binary"

	"repro/internal/chksum"
	"repro/internal/fddi"
	"repro/internal/ip"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/udp"
	"repro/internal/workload"
	"repro/internal/xkernel"
)

// Frame offsets within a full in-memory frame.
const (
	offIP  = fddi.HdrLen
	offTCP = fddi.HdrLen + ip.HdrLen
	offUDP = fddi.HdrLen + ip.HdrLen

	tcpFrameHdr = fddi.HdrLen + ip.HdrLen + tcp.HdrLen
	udpFrameHdr = fddi.HdrLen + ip.HdrLen + udp.HdrLen
)

// buildFDDI writes the 16-byte MAC header.
func buildFDDI(b []byte, dst, src xkernel.MAC) {
	b[0] = 0x50
	copy(b[1:7], dst[:])
	copy(b[7:13], src[:])
	binary.BigEndian.PutUint16(b[13:15], ip.EtherType)
	b[15] = 0
}

// buildIP writes a valid 20-byte IPv4 header (checksum included).
func buildIP(b []byte, totLen int, id uint16, proto uint8, src, dst xkernel.IPAddr) {
	b[0] = 0x45
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:4], uint16(totLen))
	binary.BigEndian.PutUint16(b[4:6], id)
	binary.BigEndian.PutUint16(b[6:8], 0)
	b[8] = 64
	b[9] = proto
	b[10], b[11] = 0, 0
	copy(b[12:16], src[:])
	copy(b[16:20], dst[:])
	ck := chksum.Sum(b[:ip.HdrLen])
	binary.BigEndian.PutUint16(b[10:12], ck)
}

// tcpTemplate preconstructs a full TCP data frame: FDDI + IP + TCP
// headers and a payload of the given size. The TCP checksum is zero
// (the drivers do not checksum; the real receiver computes and ignores).
func tcpTemplate(payload int, srcIP, dstIP xkernel.IPAddr, sport, dport uint16, win uint32) []byte {
	f := make([]byte, tcpFrameHdr+payload)
	buildFDDI(f[0:], xkernel.MAC{0xA, 0, 0, 0, 0, 1}, xkernel.MAC{0xB, 0, 0, 0, 0, 2})
	buildIP(f[offIP:], ip.HdrLen+tcp.HdrLen+payload, 7, ip.ProtoTCP, srcIP, dstIP)
	tcp.PutWireHeader(f[offTCP:], sport, dport, 0, 0, tcp.FlagACK|tcp.FlagPSH, win)
	for i := tcpFrameHdr; i < len(f); i++ {
		f[i] = byte(i * 13)
	}
	return f
}

// udpTemplate preconstructs a full UDP data frame.
func udpTemplate(payload int, srcIP, dstIP xkernel.IPAddr, sport, dport uint16) []byte {
	f := make([]byte, udpFrameHdr+payload)
	buildFDDI(f[0:], xkernel.MAC{0xA, 0, 0, 0, 0, 1}, xkernel.MAC{0xB, 0, 0, 0, 0, 2})
	buildIP(f[offIP:], ip.HdrLen+udp.HdrLen+payload, 7, ip.ProtoUDP, srcIP, dstIP)
	patchPorts(f, sport, dport)
	binary.BigEndian.PutUint16(f[offUDP+4:], uint16(udp.HdrLen+payload))
	f[offUDP+6], f[offUDP+7] = 0, 0
	for i := udpFrameHdr; i < len(f); i++ {
		f[i] = byte(i * 13)
	}
	return f
}

// newFrame builds one data frame from tmpl, the one template a peer keeps
// for all its connections: allocate it with grow bytes of tailroom held
// back for GRO merging, pass once through the adaptor ring when the
// producer shares one (nil: the steered NIC, which owns its ring), charge
// the receive-side generation, copy the template, patch in connection
// conn's port pair and stamp the payload, which starts at hdr, with
// (conn, seq, gen). The stamp is a host-side write and charges nothing:
// the templates carry a zero transport checksum, so no verdict reads it.
func newFrame(t *sim.Thread, alloc *msg.Allocator, ring *sim.Lock, tmpl []byte, hdr, grow, conn int, seq int64, gen uint32) (*msg.Message, error) {
	m, err := alloc.New(t, len(tmpl)+grow, 0)
	if err != nil {
		return nil, err
	}
	if grow > 0 {
		if err := m.TrimBack(t, grow); err != nil {
			m.Free(t)
			return nil, err
		}
	}
	st := &t.Engine().C.Stack
	if ring != nil {
		ring.Acquire(t)
		t.ChargeRand(st.DriverRing)
		ring.Release(t)
	}
	t.ChargeRand(st.DriverRXGen)
	if err := m.CopyTemplate(0, tmpl); err != nil {
		m.Free(t)
		return nil, err
	}
	b := m.Bytes()
	patchPorts(b, PeerPort(conn), LocalPort(conn))
	workload.EncodeStamp(b[hdr:], conn, seq, gen)
	return m, nil
}

// arrive stamps a built frame's birth for the flight recorder, under id
// (a connection, or a TCP sequence number).
func arrive(t *sim.Thread, m *msg.Message, id int64) {
	if rec := t.Engine().Rec; rec != nil {
		m.Born = t.Now()
		rec.Record(t.Proc, trace.Event{TS: m.Born, Kind: trace.EvArrive, Arg: id})
	}
}

// control sends a zero-payload TCP segment up the stack on the calling
// thread: tmpl's headers, their IP total length cut back to the headers
// alone, with the port pair, flags, sequence and acknowledgement patched
// in.
func control(t *sim.Thread, alloc *msg.Allocator, up xkernel.Demuxer, tmpl []byte, sport, dport uint16, flags uint8, seq, ack uint32) error {
	t.ChargeRand(t.Engine().C.Stack.DriverAck)
	m, err := alloc.New(t, tcpFrameHdr, 0)
	if err != nil {
		return err
	}
	if err := m.CopyTemplate(0, tmpl[:tcpFrameHdr]); err != nil {
		m.Free(t)
		return err
	}
	b := m.Bytes()
	if payload := len(tmpl) - tcpFrameHdr; payload > 0 {
		growIPLen(b, -payload)
	}
	patchPorts(b, sport, dport)
	b[offTCP+12] = flags
	patchTCPSeq(b, seq)
	patchTCPAck(b, ack)
	return up.Demux(t, m)
}

// patchPorts stamps a connection's port pair into a copy of a peer's
// one template: the first four bytes of a TCP and of a UDP header alike.
func patchPorts(frame []byte, sport, dport uint16) {
	binary.BigEndian.PutUint16(frame[offTCP:], sport)
	binary.BigEndian.PutUint16(frame[offTCP+2:], dport)
}

// patchTCPSeq stamps a sequence number into a template copy.
func patchTCPSeq(frame []byte, seq uint32) {
	binary.BigEndian.PutUint32(frame[offTCP+4:offTCP+8], seq)
}

// patchTCPAck stamps an acknowledgement number.
func patchTCPAck(frame []byte, ack uint32) {
	binary.BigEndian.PutUint32(frame[offTCP+8:offTCP+12], ack)
}

// parseFrameTCP extracts the TCP header from a full frame.
func parseFrameTCP(frame []byte) (tcp.WireSeg, bool) {
	if len(frame) < tcpFrameHdr {
		return tcp.WireSeg{}, false
	}
	if frame[offIP+9] != ip.ProtoTCP {
		return tcp.WireSeg{}, false
	}
	s := tcp.ParseWireHeader(frame[offTCP:])
	totLen := int(binary.BigEndian.Uint16(frame[offIP+2 : offIP+4]))
	s.DLen = totLen - ip.HdrLen - tcp.HdrLen
	return s, true
}
