// Package ip implements the Internet Protocol layer. It is structured
// like FDDI but has a slightly larger amount of state, which must be
// locked (Section 2.2 of the paper): on the send side, a datagram
// identifier used for fragmenting packets larger than the network MTU,
// which is atomically incremented per datagram; on the receive side, a
// fragment table that is locked to serialize lookups and updates.
package ip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/chksum"
	"repro/internal/event"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
	"repro/internal/xmap"
)

// HdrLen is the IPv4 header size (no options).
const HdrLen = 20

// EtherType is the FDDI/LLC type under which IP registers.
const EtherType = 0x0800

// ReassemblyTimeout is the fragment-table entry lifetime.
const ReassemblyTimeout = 30_000_000_000 // 30 s virtual

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
)

// Config parameterizes the IP instance.
type Config struct {
	Local   xkernel.IPAddr
	RefMode sim.RefMode
	// Promiscuous accepts any destination address (multi-connection
	// drivers address several fake hosts).
	Promiscuous bool
}

// Protocol is the IP protocol object.
type Protocol struct {
	cfg   Config
	lower *fddiOpener
	upper *xmap.Map // protocol number -> xkernel.Upper
	wheel *event.Wheel
	alloc *msg.Allocator

	id sim.Counter // datagram identifier, atomically incremented

	reassLock sim.Mutex
	reass     map[reassKey]*reassEntry

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
	FragsOut       int64
	FragsIn        int64
	Reassembled    int64
	TimedOut       int64
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

// New creates the IP layer. wheel may be nil to disable reassembly
// timeouts. alloc is used to build reassembled datagrams.
func New(cfg Config, low Lower, wheel *event.Wheel, alloc *msg.Allocator) *Protocol {
	p := &Protocol{
		cfg:   cfg,
		lower: low.lower(),
		upper: xmap.New(16, sim.KindMutex, "ip-demux"),
		wheel: wheel,
		alloc: alloc,
		reass: make(map[reassKey]*reassEntry),
	}
	p.reassLock.Name = "ip-reass"
	p.ref.Init(cfg.RefMode, 1)
	return p
}

// Ref returns the protocol reference count.
func (p *Protocol) Ref() *sim.RefCount { return &p.ref }

// Stats returns the counters summed over processors (atomic-load
// snapshot).
func (p *Protocol) Stats() Stats { return p.stats.Sum() }

// DemuxMap exposes the transport demux map (statistics, tests).
func (p *Protocol) DemuxMap() *xmap.Map { return p.upper }

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

// MSS returns the largest transport segment that fits one fragment.
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

// Push sends a transport segment, fragmenting when it exceeds the MTU.
// The datagram identifier is atomically incremented per datagram.
func (s *Session) Push(t *sim.Thread, m *msg.Message) error {
	if rec := t.Engine().Rec; rec != nil {
		start := t.Now()
		defer func() { rec.LayerSpan(t.Proc, "ip-send", start, t.Now()-start) }()
	}
	st := &t.Engine().C.Stack
	t.ChargeRand(st.IPSend)
	id := uint16(s.p.id.Add(t, 1))
	if m.Len()+HdrLen <= s.mtu {
		h, err := m.Push(t, HdrLen)
		if err != nil {
			return err
		}
		writeHeader(h, m.Len(), id, 0, s.proto, s.src, s.dst)
		t.Count(&s.p.stats.At(t).Sent, 1)
		return s.lower.Push(t, m)
	}
	// Fragment: payload chunks are multiples of 8 bytes except the
	// last; offsets are in 8-byte units.
	chunk := (s.mtu - HdrLen) &^ 7
	total := m.Len()
	for off := 0; off < total; off += chunk {
		n := chunk
		last := false
		if off+n >= total {
			n = total - off
			last = true
		}
		frag, err := m.Fragment(t, off, n)
		if err != nil {
			return err
		}
		t.ChargeRand(st.IPFragment)
		h, err := frag.Push(t, HdrLen)
		if err != nil {
			return err
		}
		flagsOff := uint16(off / 8)
		if !last {
			flagsOff |= 0x2000 // MF
		}
		writeHeader(h, frag.Len(), id, flagsOff, s.proto, s.src, s.dst)
		t.Count(&s.p.stats.At(t).Sent, 1)
		t.Count(&s.p.stats.At(t).FragsOut, 1)
		if err := s.lower.Push(t, frag); err != nil {
			return err
		}
	}
	m.Free(t)
	return nil
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

type reassKey struct {
	src   xkernel.IPAddr
	id    uint16
	proto uint8
}

type fragPiece struct {
	off  int
	last bool
	m    *msg.Message
}

type reassEntry struct {
	pieces  []fragPiece
	have    int // payload bytes present
	total   int // known when the last fragment arrives, else -1
	timeout *event.Event
}

// Demux handles an arriving IP packet: header validation, reassembly if
// fragmented, and dispatch to the transport protocol.
func (p *Protocol) Demux(t *sim.Thread, m *msg.Message) error {
	if rec := t.Engine().Rec; rec != nil {
		start := t.Now()
		defer func() { rec.LayerSpan(t.Proc, "ip-recv", start, t.Now()-start) }()
	}
	st := &t.Engine().C.Stack
	t.ChargeRand(st.IPRecv)
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
	if !p.cfg.Promiscuous && dst != p.cfg.Local {
		t.Count(&p.stats.At(t).NotDeliverable, 1)
		m.Free(t)
		return ErrNotOurs
	}
	proto := h[9]
	// Leave the addresses as message attributes for the transport's
	// demux key.
	copy(m.SrcAddr[:], h[12:16])
	copy(m.DstAddr[:], h[16:20])
	flagsOff := binary.BigEndian.Uint16(h[6:8])
	if flagsOff&0x3fff != 0 { // MF set or nonzero offset: a fragment
		var src xkernel.IPAddr
		copy(src[:], h[12:16])
		id := binary.BigEndian.Uint16(h[4:6])
		whole := p.reassemble(t, reassKey{src, id, proto}, flagsOff, m)
		if whole == nil {
			return nil // stored; datagram incomplete
		}
		m = whole
		copy(m.SrcAddr[:], h[12:16])
		copy(m.DstAddr[:], h[16:20])
		t.Count(&p.stats.At(t).Reassembled, 1)
	}
	t.Count(&p.stats.At(t).Received, 1)
	v, ok := p.upper.Resolve(t, xmap.ProtoKey(uint32(proto)))
	if !ok {
		t.Count(&p.stats.At(t).NotDeliverable, 1)
		m.Free(t)
		return fmt.Errorf("ip: no transport for protocol %d", proto)
	}
	return xkernel.DispatchUp(t, v.(xkernel.Upper), m)
}

// reassemble stores a fragment and returns the rebuilt datagram when
// complete, else nil. The fragment table lock serializes lookups and
// updates.
func (p *Protocol) reassemble(t *sim.Thread, k reassKey, flagsOff uint16, m *msg.Message) *msg.Message {
	st := &t.Engine().C.Stack
	p.reassLock.Acquire(t)
	t.ChargeRand(st.IPReass)
	t.Count(&p.stats.At(t).FragsIn, 1)
	e := p.reass[k]
	if e == nil {
		e = &reassEntry{total: -1}
		p.reass[k] = e
		if p.wheel != nil {
			e.timeout = p.wheel.Schedule(t, func(et *sim.Thread, _ any) {
				p.expire(et, k)
			}, nil, ReassemblyTimeout)
		}
	}
	off := int(flagsOff&0x1fff) * 8
	last := flagsOff&0x2000 == 0
	e.pieces = append(e.pieces, fragPiece{off: off, last: last, m: m})
	e.have += m.Len()
	if last {
		e.total = off + m.Len()
	}
	if e.total < 0 || e.have < e.total {
		p.reassLock.Release(t)
		return nil
	}
	// Complete: pull the entry out under the lock, join outside it.
	delete(p.reass, k)
	if e.timeout != nil && p.wheel != nil {
		p.wheel.Cancel(t, e.timeout)
	}
	p.reassLock.Release(t)

	// Sort pieces by offset (insertion order is nearly sorted).
	for i := 1; i < len(e.pieces); i++ {
		for j := i; j > 0 && e.pieces[j].off < e.pieces[j-1].off; j-- {
			e.pieces[j], e.pieces[j-1] = e.pieces[j-1], e.pieces[j]
		}
	}
	parts := make([]*msg.Message, len(e.pieces))
	for i, pc := range e.pieces {
		parts[i] = pc.m
	}
	whole, err := msg.Join(t, p.alloc, parts)
	if err != nil {
		return nil
	}
	return whole
}

// expire drops a reassembly entry whose timer fired.
func (p *Protocol) expire(t *sim.Thread, k reassKey) {
	p.reassLock.Acquire(t)
	e := p.reass[k]
	if e != nil {
		delete(p.reass, k)
	}
	p.reassLock.Release(t)
	if e != nil {
		t.Count(&p.stats.At(t).TimedOut, 1)
		for _, pc := range e.pieces {
			pc.m.Free(t)
		}
	}
}

var _ xkernel.Upper = (*Protocol)(nil)
var _ xkernel.Session = (*Session)(nil)
