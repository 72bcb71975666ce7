// Package udp implements the User Datagram Protocol: a connectionless
// transport providing little beyond simple multiplexing and
// demultiplexing (Section 2.2 of the paper). Like FDDI, locking is only
// required for session creation and packet demultiplexing.
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/chksum"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/xkernel"
	"repro/internal/xmap"
)

// HdrLen is the UDP header size.
const HdrLen = 8

// ChecksumMode selects how receive-side checksums are handled.
type ChecksumMode int

const (
	// ChecksumOff skips transport checksums entirely.
	ChecksumOff ChecksumMode = iota
	// ChecksumCompute calculates the checksum and charges its cost but
	// ignores the result — the paper's measurement methodology when the
	// simulated driver sends template packets without valid checksums.
	ChecksumCompute
	// ChecksumEnforce calculates, charges, and drops on mismatch.
	ChecksumEnforce
)

// Errors.
var (
	ErrShort       = errors.New("udp: truncated datagram")
	ErrBadChecksum = errors.New("udp: checksum mismatch")
	ErrAddr        = errors.New("udp: participant addresses differ from the IP session's")
)

// IPOpener abstracts the IP layer below.
type IPOpener interface {
	Open(t *sim.Thread, dst xkernel.IPAddr, proto uint8) (IPSession, error)
}

// IPSession is what UDP needs from an open IP session.
type IPSession interface {
	xkernel.Session
	Src() xkernel.IPAddr
	Dst() xkernel.IPAddr
	MSS() int
}

// Config parameterizes the UDP instance.
type Config struct {
	Checksum ChecksumMode
	RefMode  sim.RefMode
	// MapLocking can be disabled for the Section 3.1 experiment.
	MapLocking bool
	// MapNoCache disables the demux map's 1-behind cache (ablation).
	MapNoCache bool
	// Buckets sizes the demux hash table (0: 64, the x-kernel default).
	// Host-time only: lookups charge the same flat virtual cost at any
	// size, and the map grows itself if the count outruns the guess.
	Buckets int
}

// Protocol is the UDP protocol object.
type Protocol struct {
	cfg   Config
	lower IPOpener
	// sessions demuxes (local port, remote port) to the session.
	sessions *xmap.Table[*Session]
	sessLock sim.Lock
	ref      sim.RefCount
	stats    sim.Shards[Stats]
	// slab backs every Session; Open mutates it under sessLock.
	slab slab.Slab[Session]
	// last is the binding the latest Open used, bind0 the first one, so
	// a one-connection stack allocates none (both under sessLock).
	last  *binding
	bind0 binding
}

// Stats counts UDP activity. The protocol keeps one Stats per processor
// (sim.Shards): a thread bumps its own with Thread.Count, so host pumps
// write no shared counter line, and Stats() sums them.
type Stats struct {
	Sent        int64
	Delivered   int64
	NoPort      int64
	ChecksumBad int64
}

// New creates the UDP layer above lower.
func New(cfg Config, lower IPOpener) *Protocol {
	buckets := cfg.Buckets
	if buckets <= 0 {
		buckets = 64
	}
	p := &Protocol{
		cfg:      cfg,
		lower:    lower,
		sessions: xmap.NewTable[*Session](buckets, sim.KindMutex, "udp-demux"),
	}
	p.sessions.Locking = cfg.MapLocking
	p.sessions.NoCache = cfg.MapNoCache
	p.sessLock.Name = "udp-sess"
	p.ref.Init(cfg.RefMode, 1)
	return p
}

// Ref returns the protocol reference count.
func (p *Protocol) Ref() *sim.RefCount { return &p.ref }

// Stats returns the counters summed over processors (atomic-load
// snapshot; pump threads bump them concurrently on the host backend).
func (p *Protocol) Stats() Stats { return p.stats.Sum() }

// DemuxMap exposes the session demux map.
func (p *Protocol) DemuxMap() *xmap.Map { return &p.sessions.Map }

// binding is what the sessions opened over one IP session to one
// receiver have in common: at a million connections to one peer it is
// one object, not a million copies of the same three words.
type binding struct {
	p     *Protocol
	lower IPSession
	up    xkernel.Receiver
}

// Session is one open UDP channel: its shared binding, its demux link,
// its ports and its count, 32 B. The IP addresses are its IP session's.
type Session struct {
	*binding
	link         xmap.Link[*Session]
	lport, rport uint16
	ref          sim.RefCount
}

// MapKey is the demux key the session is bound under: its ports.
func (s *Session) MapKey() xmap.Key { return xmap.PortKey(s.lport, s.rport) }

// MapLink is the session's demux chain link.
func (s *Session) MapLink() *xmap.Link[*Session] { return &s.link }

// Open creates a session for the participant pair, delivering inbound
// datagrams to up. Session creation locks; data transfer does not. The
// pair's addresses must be those of the IP session below (ErrAddr).
func (p *Protocol) Open(t *sim.Thread, part xkernel.Part, up xkernel.Receiver) (*Session, error) {
	p.sessLock.Acquire(t)
	defer p.sessLock.Release(t)
	low, err := p.lower.Open(t, part.RemoteIP, 17)
	if err != nil {
		return nil, err
	}
	if part.LocalIP != low.Src() || part.RemoteIP != low.Dst() {
		_ = low.Close(t)
		return nil, fmt.Errorf("%w: %v->%v over %v->%v", ErrAddr, part.LocalIP, part.RemoteIP, low.Src(), low.Dst())
	}
	// Every Receiver is a pointer or an empty struct: == is safe.
	b := p.last
	if b == nil || b.lower != low || b.up != up {
		b = &p.bind0
		if p.last != nil {
			b = new(binding)
		}
		*b = binding{p: p, lower: low, up: up}
	}
	s := p.slab.New()
	*s = Session{binding: b, lport: part.LocalPort, rport: part.RemotePort}
	s.ref.Init(p.cfg.RefMode, 1)
	if err := p.sessions.Bind(t, s); err != nil {
		_ = low.Close(t) // drop the lower sessions' references; Bind's error is the one to report
		return nil, err
	}
	p.last = b
	return s, nil
}

// MSS returns the largest payload that avoids IP fragmentation.
func (s *Session) MSS() int { return s.lower.MSS() - HdrLen }

// Push sends one datagram. Checksumming, when enabled, happens outside
// any lock — there is nothing to lock on the UDP send path.
func (s *Session) Push(t *sim.Thread, m *msg.Message) error {
	if rec := t.Engine().Rec; rec != nil {
		start := t.Now()
		defer func() { rec.LayerSpan(t.Proc, "udp-send", start, t.Now()-start) }()
	}
	st := &t.Engine().C.Stack
	t.ChargeRand(st.UDPSend)
	h, err := m.Push(t, HdrLen)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint16(h[0:2], s.lport)
	binary.BigEndian.PutUint16(h[2:4], s.rport)
	binary.BigEndian.PutUint16(h[4:6], uint16(m.Len()))
	h[6], h[7] = 0, 0
	if s.p.cfg.Checksum != ChecksumOff {
		t.ChargeBytes(st.ChecksumByte, m.Len())
		ck := chksum.SumPseudo(s.lower.Src(), s.lower.Dst(), 17, m.Bytes())
		if ck == 0 {
			ck = 0xffff
		}
		binary.BigEndian.PutUint16(h[6:8], ck)
	}
	t.Count(&s.p.stats.At(t).Sent, 1)
	return s.lower.Push(t, m)
}

// Close unbinds and releases the session. Like Open it holds the
// session lock across the call below, where the IP session is shared.
func (s *Session) Close(t *sim.Thread) error {
	s.p.sessLock.Acquire(t)
	defer s.p.sessLock.Release(t)
	if err := s.p.sessions.Unbind(t, s.MapKey()); err != nil {
		return err
	}
	s.ref.Decr(t)
	return s.lower.Close(t)
}

// Demux delivers an arriving datagram to the session bound to its port
// pair. The map lookup is the one receive-side locking point.
func (p *Protocol) Demux(t *sim.Thread, m *msg.Message) error {
	if rec := t.Engine().Rec; rec != nil {
		start := t.Now()
		defer func() { rec.LayerSpan(t.Proc, "udp-recv", start, t.Now()-start) }()
	}
	st := &t.Engine().C.Stack
	t.ChargeRand(st.UDPRecv)
	h, err := m.Peek(HdrLen)
	if err != nil {
		m.Free(t)
		return ErrShort
	}
	sport := binary.BigEndian.Uint16(h[0:2])
	dport := binary.BigEndian.Uint16(h[2:4])
	ln := int(binary.BigEndian.Uint16(h[4:6]))
	if ln > m.Len() || ln < HdrLen {
		m.Free(t)
		return ErrShort
	}
	// Demux key from the receiver's perspective: local=dst port.
	s, ok := p.sessions.Resolve(t, xmap.PortKey(dport, sport))
	if !ok {
		t.Count(&p.stats.At(t).NoPort, 1)
		m.Free(t)
		return fmt.Errorf("udp: no session for ports %d<-%d", dport, sport)
	}
	if p.cfg.Checksum != ChecksumOff {
		t.ChargeBytes(st.ChecksumByte, m.Len())
		if binary.BigEndian.Uint16(h[6:8]) != 0 {
			if !chksum.Verify(s.lower.Dst(), s.lower.Src(), 17, m.Bytes()) {
				t.Count(&p.stats.At(t).ChecksumBad, 1)
				if p.cfg.Checksum == ChecksumEnforce {
					m.Free(t)
					return ErrBadChecksum
				}
			}
		}
	}
	if _, err := m.Pop(t, HdrLen); err != nil {
		m.Free(t)
		return ErrShort
	}
	// Session refcount discipline on the fast path (Section 5.2).
	s.ref.Incr(t)
	err = s.up.Receive(t, m)
	s.ref.Decr(t)
	if err == nil {
		t.Count(&p.stats.At(t).Delivered, 1)
	}
	return err
}

var _ xkernel.Upper = (*Protocol)(nil)
var _ xkernel.Session = (*Session)(nil)
