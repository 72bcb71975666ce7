// Package ip implements the Internet Protocol layer. It is structured
// like FDDI with one more piece of shared state (Section 2.2 of the
// paper): the datagram identifier, atomically incremented per datagram.
//
// One segment travels as one datagram. The paper's IP also fragments
// datagrams over the MTU and rebuilds them in a locked fragment table,
// but no experiment reaches either: core.Build refuses a packet size
// that does not fit one FDDI frame. So Push refuses a datagram over the
// MTU, and Demux drops an arriving fragment and counts it.
package ip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/chksum"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
	"repro/internal/xmap"
)

// HdrLen is the IPv4 header size (no options).
const HdrLen = 20

// EtherType is the FDDI/LLC type under which IP registers.
const EtherType = 0x0800

// Protocol numbers.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Errors.
var (
	ErrBadChecksum = errors.New("ip: header checksum mismatch")
	ErrNotOurs     = errors.New("ip: destination is not local")
	ErrShort       = errors.New("ip: truncated packet")
	ErrTooBig      = errors.New("ip: datagram exceeds the MTU")
	ErrFragment    = errors.New("ip: fragment dropped")
)

// Config parameterizes the IP instance.
type Config struct {
	Local   xkernel.IPAddr
	RefMode sim.RefMode
}

// Protocol is the IP protocol object.
type Protocol struct {
	cfg   Config
	lower *fddiOpener
	upper *xmap.Pairs[xkernel.Upper] // protocol number -> transport

	id sim.Counter // datagram identifier, atomically incremented

	ref   sim.RefCount
	stats sim.Shards[Stats]

	// open is the x-kernel active map: the sessions with a reference
	// outstanding, one per (dst, transport protocol); a slice, since a
	// stack talks to a handful of peers. Open and Close have no lock of
	// their own: the one transport above a stack's IP holds its session
	// lock across either call.
	open []*Session
}

// Stats counts IP activity. The protocol keeps one Stats per processor
// (sim.Shards), bumped with Thread.Count and summed by Stats(): atomic
// adds to the pump's own lines on the host backend, where pump threads
// run concurrently, plain increments under the sim engine, which
// serializes them.
type Stats struct {
	Sent           int64
	Received       int64
	FragsDropped   int64 // arrivals with MF or an offset set
	ChecksumBad    int64
	NotDeliverable int64
}

// fddiOpener abstracts the MAC layer below (fddi.Protocol in the real
// stack; fakes in tests).
type fddiOpener struct {
	open func(t *sim.Thread, remote xkernel.MAC, proto uint16) (xkernel.Session, error)
	mtu  int
}

// LowerFDDI adapts a *fddi.Protocol-shaped layer. open is typically
// fddi.Protocol.Open wrapped to return the interface type.
func LowerFDDI(mtu int, open func(t *sim.Thread, remote xkernel.MAC, proto uint16) (xkernel.Session, error)) Lower {
	return &fddiOpener{open: open, mtu: mtu}
}

// Lower is the constructor-time handle to the MAC layer.
type Lower interface {
	lower() *fddiOpener
}

func (f *fddiOpener) lower() *fddiOpener { return f }

// New creates the IP layer.
func New(cfg Config, low Lower) *Protocol {
	p := &Protocol{
		cfg:   cfg,
		lower: low.lower(),
		upper: xmap.NewPairs[xkernel.Upper](16, sim.KindMutex, "ip-demux"),
	}
	p.ref.Init(cfg.RefMode, 1)
	return p
}

// Ref returns the protocol reference count.
func (p *Protocol) Ref() *sim.RefCount { return &p.ref }

// Stats returns the counters summed over processors (atomic-load
// snapshot).
func (p *Protocol) Stats() Stats { return p.stats.Sum() }

// DemuxMap exposes the transport demux map (statistics, tests).
func (p *Protocol) DemuxMap() *xmap.Map { return &p.upper.Map }

// OpenEnable registers a transport to receive the given protocol
// number.
func (p *Protocol) OpenEnable(t *sim.Thread, proto uint8, up xkernel.Upper) error {
	return p.upper.Bind(t, xmap.ProtoKey(uint32(proto)), up)
}

// Session is one IP send channel.
type Session struct {
	p     *Protocol
	lower xkernel.Session
	src   xkernel.IPAddr
	dst   xkernel.IPAddr
	proto uint8
	mtu   int
	ref   sim.RefCount
}

// Open returns the session toward dst carrying the given transport
// protocol with one more reference on it, as x-kernel xOpen does: the
// one already open if there is one, a new one otherwise. Either way it
// opens the MAC layer once, and Close closes it once.
func (p *Protocol) Open(t *sim.Thread, dst xkernel.IPAddr, proto uint8) (*Session, error) {
	// All destinations are one hop away through the in-memory driver;
	// the remote MAC is a fixed fiction.
	low, err := p.lower.open(t, xkernel.MAC{0xfd, 0xd1, 0, 0, 0, 1}, EtherType)
	if err != nil {
		return nil, err
	}
	for _, s := range p.open {
		if s.dst == dst && s.proto == proto {
			s.ref.Share(t) // low is s.lower again, shared the same way
			return s, nil
		}
	}
	s := &Session{
		p:     p,
		lower: low,
		src:   p.cfg.Local,
		dst:   dst,
		proto: proto,
		mtu:   p.lower.mtu,
	}
	s.ref.Init(p.cfg.RefMode, 1)
	p.open = append(p.open, s)
	return s, nil
}

// Ref returns the session reference count.
func (s *Session) Ref() *sim.RefCount { return &s.ref }

// Src returns the session's source address.
func (s *Session) Src() xkernel.IPAddr { return s.src }

// Dst returns the session's destination address.
func (s *Session) Dst() xkernel.IPAddr { return s.dst }

// MSS returns the largest transport segment that fits one datagram.
func (s *Session) MSS() int { return s.mtu - HdrLen }

// writeHeader fills a 20-byte IPv4 header.
func writeHeader(h []byte, totLen int, id uint16, flagsOff uint16, proto uint8, src, dst xkernel.IPAddr) {
	h[0] = 0x45
	h[1] = 0
	binary.BigEndian.PutUint16(h[2:4], uint16(totLen))
	binary.BigEndian.PutUint16(h[4:6], id)
	binary.BigEndian.PutUint16(h[6:8], flagsOff)
	h[8] = 64
	h[9] = proto
	h[10], h[11] = 0, 0
	copy(h[12:16], src[:])
	copy(h[16:20], dst[:])
	ck := chksum.Sum(h[:HdrLen])
	binary.BigEndian.PutUint16(h[10:12], ck)
}

// Push sends a transport segment as one datagram, or refuses it with
// ErrTooBig, freeing it, when it exceeds the MTU. The datagram
// identifier is atomically incremented per datagram.
func (s *Session) Push(t *sim.Thread, m *msg.Message) error {
	if rec := t.Engine().Rec; rec != nil {
		start := t.Now()
		defer func() { rec.LayerSpan(t.Proc, "ip-send", start, t.Now()-start) }()
	}
	if m.Len()+HdrLen > s.mtu {
		m.Free(t)
		return ErrTooBig
	}
	t.ChargeRand(t.Engine().C.Stack.IPSend)
	id := uint16(s.p.id.Add(t, 1))
	h, err := m.Push(t, HdrLen)
	if err != nil {
		return err
	}
	writeHeader(h, m.Len(), id, 0, s.proto, s.src, s.dst)
	t.Count(&s.p.stats.At(t).Sent, 1)
	return s.lower.Push(t, m)
}

// Close drops one reference here and one below; the last one takes the
// session out of the open table, so a later Open builds a fresh one.
func (s *Session) Close(t *sim.Thread) error {
	if s.ref.Decr(t) {
		s.p.open = slices.DeleteFunc(s.p.open, func(o *Session) bool { return o == s })
	}
	return s.lower.Close(t)
}

// ---- Receive path ----

// Demux handles an arriving IP packet: header validation, then dispatch
// to the transport protocol. A fragment is dropped with ErrFragment.
func (p *Protocol) Demux(t *sim.Thread, m *msg.Message) error {
	if rec := t.Engine().Rec; rec != nil {
		start := t.Now()
		defer func() { rec.LayerSpan(t.Proc, "ip-recv", start, t.Now()-start) }()
	}
	t.ChargeRand(t.Engine().C.Stack.IPRecv)
	h, err := m.Pop(t, HdrLen)
	if err != nil {
		return ErrShort
	}
	if chksum.Sum(h) != 0 {
		t.Count(&p.stats.At(t).ChecksumBad, 1)
		m.Free(t)
		return ErrBadChecksum
	}
	totLen := int(binary.BigEndian.Uint16(h[2:4]))
	if totLen < HdrLen || totLen-HdrLen > m.Len() {
		m.Free(t)
		return ErrShort
	}
	// FDDI may have padded; trim to the IP length.
	if m.Len() > totLen-HdrLen {
		if err := m.TrimBack(t, m.Len()-(totLen-HdrLen)); err != nil {
			m.Free(t)
			return err
		}
	}
	var dst xkernel.IPAddr
	copy(dst[:], h[16:20])
	if dst != p.cfg.Local {
		t.Count(&p.stats.At(t).NotDeliverable, 1)
		m.Free(t)
		return ErrNotOurs
	}
	if binary.BigEndian.Uint16(h[6:8])&0x3fff != 0 { // MF set or nonzero offset
		t.Count(&p.stats.At(t).FragsDropped, 1)
		m.Free(t)
		return ErrFragment
	}
	proto := h[9]
	// Leave the addresses as message attributes for the transport's
	// demux key.
	copy(m.SrcAddr[:], h[12:16])
	copy(m.DstAddr[:], h[16:20])
	t.Count(&p.stats.At(t).Received, 1)
	up, ok := p.upper.Resolve(t, xmap.ProtoKey(uint32(proto)))
	if !ok {
		t.Count(&p.stats.At(t).NotDeliverable, 1)
		m.Free(t)
		return fmt.Errorf("ip: no transport for protocol %d", proto)
	}
	return xkernel.DispatchUp(t, up, m)
}

var _ xkernel.Upper = (*Protocol)(nil)
var _ xkernel.Session = (*Session)(nil)
