// Package fddi implements the FDDI media access layer of the stack. As
// in the paper (Section 2.2), the protocol is very simple: it prepends
// headers to outgoing packets and removes headers from incoming packets.
// Locking is only necessary during session creation and on packet
// demultiplexing (to determine the upper-layer protocol a message should
// be dispatched to); no locking is required for outgoing packets during
// data transfer.
package fddi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
	"repro/internal/xmap"
)

// HdrLen is the size of our simplified FDDI+LLC header: frame control
// (1), destination (6), source (6), upper-protocol type (2), pad (1).
const HdrLen = 16

// MTU is the FDDI maximum transmission unit payload: "slightly over 4K
// bytes" (4352 including MAC overhead; we expose the classic 4352-byte
// payload figure used by the paper's drivers).
const MTU = 4352

// ErrTooBig is returned for frames exceeding the MTU.
var ErrTooBig = errors.New("fddi: frame exceeds MTU")

// Config parameterizes the protocol instance.
type Config struct {
	Self    xkernel.MAC
	RefMode sim.RefMode
	// MapLocking can be disabled for the Section 3.1 experiment.
	MapLocking bool
	// MapNoCache disables the demux map's 1-behind cache (ablation).
	MapNoCache bool
}

// Protocol is the FDDI protocol object.
type Protocol struct {
	cfg   Config
	wire  xkernel.Wire
	upper *xmap.Pairs[xkernel.Upper] // protocol type -> upper protocol
	// sessLock serializes session creation and release only.
	sessLock sim.Lock
	// open is the x-kernel active map, under sessLock: the sessions with
	// a reference outstanding, one per (remote MAC, type). A slice, as in ip.
	open []*Session
}

// New creates the FDDI layer above the given wire (driver).
func New(cfg Config, wire xkernel.Wire) *Protocol {
	p := &Protocol{
		cfg:   cfg,
		wire:  wire,
		upper: xmap.NewPairs[xkernel.Upper](16, sim.KindMutex, "fddi-demux"),
	}
	p.upper.Locking = cfg.MapLocking
	p.upper.NoCache = cfg.MapNoCache
	p.sessLock.Name = "fddi-sess"
	return p
}

// OpenEnable registers an upper protocol to receive frames of the given
// type (passive demux binding).
func (p *Protocol) OpenEnable(t *sim.Thread, proto uint16, up xkernel.Upper) error {
	return p.upper.Bind(t, xmap.ProtoKey(uint32(proto)), up)
}

// Session is one FDDI send channel with a preconstructed header
// template.
type Session struct {
	p   *Protocol
	hdr [HdrLen]byte
	ref sim.RefCount
}

// Open returns the session to the remote MAC carrying the given upper
// protocol type with one more reference on it, as x-kernel xOpen does:
// the one already open if there is one (its header template is the
// key), a new one otherwise. It is the one send-side locking point.
func (p *Protocol) Open(t *sim.Thread, remote xkernel.MAC, proto uint16) (*Session, error) {
	p.sessLock.Acquire(t)
	defer p.sessLock.Release(t)
	hdr := [HdrLen]byte{0: 0x50} // frame control: LLC frame
	copy(hdr[1:7], remote[:])
	copy(hdr[7:13], p.cfg.Self[:])
	binary.BigEndian.PutUint16(hdr[13:15], proto)
	for _, s := range p.open {
		if s.hdr == hdr {
			s.ref.Share(t)
			return s, nil
		}
	}
	s := &Session{p: p, hdr: hdr}
	s.ref.Init(p.cfg.RefMode, 1)
	p.open = append(p.open, s)
	return s, nil
}

// Ref returns the session reference count.
func (s *Session) Ref() *sim.RefCount { return &s.ref }

// Push prepends the FDDI header and hands the frame to the driver. No
// locking: outgoing data transfer is lock-free at this layer.
func (s *Session) Push(t *sim.Thread, m *msg.Message) error {
	if m.Len() > MTU {
		return ErrTooBig
	}
	if rec := t.Engine().Rec; rec != nil {
		start := t.Now()
		defer func() { rec.LayerSpan(t.Proc, "fddi-send", start, t.Now()-start) }()
	}
	t.ChargeRand(t.Engine().C.Stack.FDDISend)
	h, err := m.Push(t, HdrLen)
	if err != nil {
		return err
	}
	copy(h, s.hdr[:])
	return s.p.wire.TX(t, m)
}

// Close drops one reference; the last one takes the session out of the
// open table, so a later Open builds a fresh one.
func (s *Session) Close(t *sim.Thread) error {
	p := s.p
	p.sessLock.Acquire(t)
	defer p.sessLock.Release(t)
	if s.ref.Decr(t) {
		p.open = slices.DeleteFunc(p.open, func(o *Session) bool { return o == s })
	}
	return nil
}

// Demux strips the FDDI header from an arriving frame and dispatches it
// to the upper protocol registered for its type. The map lookup is the
// receive-side locking point. A frame it refuses it frees.
func (p *Protocol) Demux(t *sim.Thread, m *msg.Message) error {
	if rec := t.Engine().Rec; rec != nil {
		start := t.Now()
		defer func() { rec.LayerSpan(t.Proc, "fddi-recv", start, t.Now()-start) }()
	}
	t.ChargeRand(t.Engine().C.Stack.FDDIRecv)
	h, err := m.Pop(t, HdrLen)
	if err != nil {
		m.Free(t)
		return fmt.Errorf("fddi: short frame: %w", err)
	}
	proto := binary.BigEndian.Uint16(h[13:15])
	up, ok := p.upper.Resolve(t, xmap.ProtoKey(uint32(proto)))
	if !ok {
		m.Free(t)
		return fmt.Errorf("fddi: no upper protocol for type %#04x", proto)
	}
	return xkernel.DispatchUp(t, up, m)
}

// DemuxMap exposes the demux map (statistics, tests).
func (p *Protocol) DemuxMap() *xmap.Map { return &p.upper.Map }

var _ xkernel.Session = (*Session)(nil)
