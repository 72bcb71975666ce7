// Package tcp implements a Net/2-structured Transmission Control
// Protocol, the complex connection-oriented transport of the paper's
// study (Section 2.2): reliable in-order delivery, header prediction,
// 32-bit flow-control windows, retransmission and reassembly queues,
// congestion control and BSD-style timers.
//
// Because TCP keeps a great deal of per-connection state that must be
// locked, the package implements the paper's three locking layouts
// (Section 5.1):
//
//   - TCP-1: a single lock protects all connection state.
//   - TCP-2: one lock for send-side state, one for receive-side state.
//   - TCP-6: the SICS layout — six locks covering the reassembly queue,
//     the retransmission buffer, header prepend, header remove, and the
//     send and receive window state. As in the SICS code, checksum
//     calculation happens inside the header prepend/remove locks, which
//     is precisely the property the paper criticizes.
//
// The state locks can be the raw unfair mutex or FIFO MCS locks
// (Section 4.1), packets can be treated as always-in-order (the Figure
// 10 upper bound), and the Section 4.2 ticketing scheme can be enabled
// to preserve order above TCP.
package tcp

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/event"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
	"repro/internal/xmap"
)

// ChecksumMode selects transport checksum behaviour (see udp for the
// same trichotomy; the paper's drivers send template packets without
// valid checksums, so measurement runs compute-and-ignore).
type ChecksumMode int

const (
	// ChecksumOff disables transport checksums.
	ChecksumOff ChecksumMode = iota
	// ChecksumCompute charges and computes but ignores the result.
	ChecksumCompute
	// ChecksumEnforce drops segments with bad checksums.
	ChecksumEnforce
)

// Layout selects the connection-state locking granularity.
type Layout int

const (
	// Layout1 is TCP-1: one lock for everything.
	Layout1 Layout = iota
	// Layout2 is TCP-2: send lock + receive lock.
	Layout2
	// Layout6 is TCP-6: the six-lock SICS layout.
	Layout6
)

// layoutFlags are the command-line spellings, layoutNames the paper's.
var (
	layoutFlags = []string{Layout1: "1", Layout2: "2", Layout6: "6"}
	layoutNames = []string{Layout1: "TCP-1", Layout2: "TCP-2", Layout6: "TCP-6"}
)

func (l Layout) String() string { return sim.EnumName(layoutNames, l) }

// Set parses a layout as 1, 2 or 6, or by its paper name (flag.Value).
func (l *Layout) Set(s string) error {
	return sim.SetEnum(l, "TCP locking layout", s, layoutFlags, layoutNames)
}

// Errors.
var (
	ErrShort       = errors.New("tcp: truncated segment")
	ErrBadChecksum = errors.New("tcp: checksum mismatch")
	ErrClosed      = errors.New("tcp: connection closed")
	ErrNoListen    = errors.New("tcp: no listener")
)

// Config parameterizes a TCP instance.
type Config struct {
	Layout   Layout
	Kind     sim.LockKind
	Checksum ChecksumMode
	RefMode  sim.RefMode
	// MapLocking can be disabled for the demux-lock experiment.
	MapLocking bool
	// MapNoCache disables the demux map's 1-behind cache (ablation).
	MapNoCache bool
	// AssumeInOrder treats every arriving data segment as if it were
	// in order — the modified TCP used as the Figure 10 upper bound.
	AssumeInOrder bool
	// Ticketing enables the Section 4.2 up-ticket scheme: a receiving
	// thread draws a ticket before releasing the connection state lock
	// and the message carries it to the application.
	Ticketing bool
	// Window is the 32-bit flow-control window in bytes (default 1 MB).
	Window uint32
	// NoHeaderPrediction disables the fast path (ablation).
	NoHeaderPrediction bool
	// AckEvery controls delayed acks: an ACK is generated for every
	// AckEvery-th data segment (default 2, mimicking Net/2 talking to
	// itself, per Section 2.3).
	AckEvery int
	// Buckets sizes the demux hash table (0: 64, the x-kernel default).
	// Size it near the expected connection count; lookups charge the
	// same virtual cost either way, but host-time chain walks do not.
	Buckets int
}

// DefaultConfig is the paper's baseline: TCP-1, raw mutex state lock,
// checksum computed, atomic refcounts.
func DefaultConfig() Config {
	return Config{
		Layout:     Layout1,
		Kind:       sim.KindMutex,
		Checksum:   ChecksumCompute,
		RefMode:    sim.RefAtomic,
		MapLocking: true,
		Window:     1 << 20,
		AckEvery:   2,
	}
}

// IPOpener abstracts the IP layer below.
type IPOpener interface {
	Open(t *sim.Thread, dst xkernel.IPAddr, proto uint8) (IPSession, error)
}

// IPSession is what TCP needs from an open IP session.
type IPSession interface {
	xkernel.Session
	Src() xkernel.IPAddr
	Dst() xkernel.IPAddr
	MSS() int
}

// Stats aggregates protocol-wide counters. The protocol keeps one Stats
// per processor (sim.Shards) and Stats() sums them: a thread bumps its
// own processor's copy with Thread.Count, so on the host backend, where
// pumps on different procs run concurrently and the add is atomic, no
// counter line crosses processors. The sim engine serializes, so there
// the add is plain and the sums stay deterministic.
type Stats struct {
	SegsIn      int64
	SegsOut     int64
	DataSegsIn  int64
	OOOSegsIn   int64 // data segments arriving out of order at TCP
	Predicted   int64 // header-prediction fast-path hits
	AcksIn      int64
	AcksOut     int64
	Rexmt       int64
	FastRexmt   int64
	Dropped     int64
	ChecksumBad int64
	Delivered   int64
	BytesIn     int64
	BytesOut    int64
}

// Protocol is the TCP protocol object.
type Protocol struct {
	cfg   Config
	lower IPOpener
	alloc *msg.Allocator
	wheel *event.Wheel

	tcbs     *xmap.Map // 4-tuple -> *TCB
	sessLock sim.Mutex
	iss      sim.Counter
	ref      sim.RefCount
	stats    sim.Shards[Stats]

	stopTimers sim.Flag

	// Timer state: the hierarchical tick wheel holding armed slow timers
	// (deadlines are absolute indices in the slowTicks series), the
	// pending delayed-ack list the fast heartbeat drains, and the
	// heartbeats' scratch (event-thread only, reused every tick).
	tw            *event.TickWheel
	slowTicks     int64
	delackLock    sim.Locker
	delackQ       []*TCB
	delackScratch []*TCB
	flushScratch  []pendingAck
	dueScratch    []*event.TimerNode
	firedScratch  []expiry

	// Test hooks: tickLog runs at the top of every slow heartbeat,
	// before the wheel advances; timerLog observes every slow-timer
	// expiry as (tcb, which, slow tick index).
	tickLog  func(t *sim.Thread, tick int64)
	timerLog func(tcb *TCB, which int, tick int64)

	// tcbFree holds connection blocks the 2MSL reaper released, for
	// newTCB to reuse. The last reference may drain on a pump thread, so
	// a host mutex guards it (uncontended and uncharged under the sim).
	freeMu  sync.Mutex
	tcbFree []*TCB
}

// New creates a TCP instance. wheel drives the BSD fast (200 ms) and
// slow (500 ms) timers; it may be nil for tests that never need timers.
func New(cfg Config, lower IPOpener, alloc *msg.Allocator, wheel *event.Wheel) *Protocol {
	if cfg.Window == 0 {
		cfg.Window = 1 << 20
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 2
	}
	buckets := cfg.Buckets
	if buckets <= 0 {
		buckets = 64
	}
	p := &Protocol{
		cfg:   cfg,
		lower: lower,
		alloc: alloc,
		wheel: wheel,
		tcbs:  xmap.New(buckets, sim.KindMutex, "tcp-demux"),

		tw:         event.NewTickWheel(sim.KindMutex, "tcp-tickwheel"),
		delackLock: sim.NewLock(sim.KindMutex, "tcp-delackq"),
	}
	p.tcbs.Locking = cfg.MapLocking
	p.tcbs.NoCache = cfg.MapNoCache
	p.sessLock.Name = "tcp-sess"
	p.ref.Init(cfg.RefMode, 1)
	return p
}

// Ref returns the protocol reference count.
func (p *Protocol) Ref() *sim.RefCount { return &p.ref }

// Stats returns the counters summed over processors (atomic-load
// snapshot; coherent per field, not across fields, on the host
// backend).
func (p *Protocol) Stats() Stats { return p.stats.Sum() }

// DemuxMap exposes the connection demux map.
func (p *Protocol) DemuxMap() *xmap.Map { return p.tcbs }

// nextISS draws an initial send sequence number.
func (p *Protocol) nextISS(t *sim.Thread) uint32 {
	return uint32(p.iss.Add(t, 1))*64000 + 1
}

func tcbKey(part xkernel.Part) xmap.Key {
	return xmap.AddrKey(part.LocalIP, part.RemoteIP, part.LocalPort, part.RemotePort)
}

// Open actively opens a connection (sends SYN) and blocks until it is
// established. Inbound data is delivered to up.
func (p *Protocol) Open(t *sim.Thread, part xkernel.Part, up xkernel.Receiver) (*TCB, error) {
	p.sessLock.Acquire(t)
	low, err := p.lower.Open(t, part.RemoteIP, 6)
	if err != nil {
		p.sessLock.Release(t)
		return nil, err
	}
	tcb := newTCB(p, part, low, up)
	if err := p.tcbs.Bind(t, tcbKey(part), tcb); err != nil {
		_ = low.Close(t) // as in OpenEnable
		p.sessLock.Release(t)
		return nil, err
	}
	p.sessLock.Release(t)

	tcb.lockAll(t)
	tcb.iss = p.nextISS(t)
	tcb.sndUna, tcb.sndNxt, tcb.sndMax = tcb.iss, tcb.iss, tcb.iss
	tcb.state = stateSynSent
	tcb.unlockAll(t)
	if err := tcb.sendControl(t, FlagSYN, tcb.iss, 0); err != nil {
		return nil, err
	}
	tcb.lockAll(t)
	for tcb.state != stateEstablished && tcb.state != stateClosed {
		tcb.estCond.Wait(t, "tcp: waiting for SYN-ACK")
	}
	st := tcb.state
	tcb.unlockAll(t)
	if st != stateEstablished {
		return nil, ErrClosed
	}
	return tcb, nil
}

// OpenEnable passively opens: the TCB listens for a SYN from the named
// remote participant.
func (p *Protocol) OpenEnable(t *sim.Thread, part xkernel.Part, up xkernel.Receiver) (*TCB, error) {
	p.sessLock.Acquire(t)
	defer p.sessLock.Release(t)
	low, err := p.lower.Open(t, part.RemoteIP, 6)
	if err != nil {
		return nil, err
	}
	tcb := newTCB(p, part, low, up)
	tcb.state = stateListen
	if err := p.tcbs.Bind(t, tcbKey(part), tcb); err != nil {
		_ = low.Close(t) // drop the lower sessions' references; Bind's error is the one to report
		return nil, err
	}
	return tcb, nil
}

// Demux parses an arriving segment's header, optionally checksums it,
// resolves the owning TCB and runs input processing. For Layout6 the
// checksum happens under the header-remove lock, as in the SICS code.
func (p *Protocol) Demux(t *sim.Thread, m *msg.Message) error {
	if rec := t.Engine().Rec; rec != nil {
		start := t.Now()
		defer func() { rec.LayerSpan(t.Proc, "tcp-recv", start, t.Now()-start) }()
	}
	st := &t.Engine().C.Stack
	t.ChargeRand(st.TCPRecvPre)
	h, err := m.Peek(HdrLen)
	if err != nil {
		t.Count(&p.stats.At(t).Dropped, 1)
		m.Free(t)
		return ErrShort
	}
	sg := parseHeader(h)
	sg.dlen = m.Len() - HdrLen

	// Demultiplex: local port is the destination.
	key := xmap.AddrKey(dstOf(m), srcOf(m), sg.dport, sg.sport)
	v, ok := p.tcbs.Resolve(t, key)
	if !ok {
		t.Count(&p.stats.At(t).Dropped, 1)
		m.Free(t)
		return fmt.Errorf("tcp: no connection for %v", sg)
	}
	tcb := v.(*TCB)

	if p.cfg.Layout == Layout6 {
		// SICS: header remove (and the checksum done there) under its
		// own lock.
		tcb.locks.hrem.Acquire(t)
	}
	if p.cfg.Checksum != ChecksumOff {
		t.ChargeBytes(st.ChecksumByte, m.Len())
		if !tcb.verifyChecksum(t, m) {
			t.Count(&p.stats.At(t).ChecksumBad, 1)
			if p.cfg.Checksum == ChecksumEnforce {
				if p.cfg.Layout == Layout6 {
					tcb.locks.hrem.Release(t)
				}
				t.Count(&p.stats.At(t).Dropped, 1)
				m.Free(t)
				return ErrBadChecksum
			}
		}
	}
	if _, err := m.Pop(t, HdrLen); err != nil {
		if p.cfg.Layout == Layout6 {
			tcb.locks.hrem.Release(t)
		}
		t.Count(&p.stats.At(t).Dropped, 1)
		m.Free(t)
		return ErrShort
	}
	if p.cfg.Layout == Layout6 {
		tcb.locks.hrem.Release(t)
	}

	// Session refcount discipline on the fast path (Section 5.2).
	tcb.ref.Incr(t)
	err = tcb.input(t, sg, m)
	if tcb.ref.Decr(t) {
		// The base reference was released by the 2MSL reaper while we
		// were inside input processing; ours was the last.
		p.recycleTCB(tcb)
	}
	return err
}

// srcOf and dstOf recover the datagram's IP addresses from the message
// attributes the IP layer set before dispatching up (the x-kernel passes
// such out-of-band data as message attributes).
func srcOf(m *msg.Message) xkernel.IPAddr { return xkernel.IPAddr(m.SrcAddr) }
func dstOf(m *msg.Message) xkernel.IPAddr { return xkernel.IPAddr(m.DstAddr) }

var _ xkernel.Upper = (*Protocol)(nil)
