package driver

import (
	"encoding/binary"
	"errors"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/udp"
	"repro/internal/xkernel"
)

// FaultRates sets per-frame fault probabilities for one direction of
// the wire. All rates are in [0, 1] and are evaluated independently per
// frame in a fixed order: drop, corrupt, duplicate, reorder.
type FaultRates struct {
	// Drop discards the frame.
	Drop float64
	// Dup forwards the frame twice.
	Dup float64
	// Corrupt flips a payload bit and stamps a bogus transport checksum
	// so the receive-side checksum path (ChecksumBad, Enforce drops)
	// actually fires.
	Corrupt float64
	// Reorder holds the frame back and releases it after the next frame
	// in the same direction, swapping the pair on the wire.
	Reorder float64
}

func (r FaultRates) enabled() bool {
	return r.Drop > 0 || r.Dup > 0 || r.Corrupt > 0 || r.Reorder > 0
}

// FaultConfig configures the fault-injection wire. Up is the inbound
// direction (driver -> stack), Down the outbound (stack -> driver).
type FaultConfig struct {
	Up   FaultRates
	Down FaultRates
}

// Enabled reports whether any fault is configured in either direction.
func (c FaultConfig) Enabled() bool { return c.Up.enabled() || c.Down.enabled() }

// FaultDirStats counts faults injected in one direction.
type FaultDirStats struct {
	Frames     int64 // frames offered while armed
	Dropped    int64
	Duplicated int64
	Corrupted  int64
	Reordered  int64 // frames held back (each swaps one pair)
}

// FaultStats carries both directions' counters.
type FaultStats struct {
	Up, Down FaultDirStats
}

// FaultWire is a deterministic channel model inserted between the
// simulated driver and the FDDI layer. It implements xkernel.Demuxer for
// the inbound path (the driver's SetUpper points here, and the wire
// forwards to FDDI) and xkernel.Wire for the outbound path (FDDI's
// wire points here, and the wire forwards to the real driver).
//
// Faults are drawn from a single seeded PRNG; the engine serializes
// thread execution, so the draw sequence — and therefore the whole
// fault schedule — is bit-reproducible for a given seed and config.
// Until Arm is called the wire is a pure pass-through, which keeps the
// connection handshakes loss-free during setup.
type FaultWire struct {
	cfg   FaultConfig
	alloc *msg.Allocator
	down  xkernel.Wire
	up    xkernel.Demuxer

	rng   sim.Rand
	armed sim.Flag

	heldUp   *msg.Message // reorder slots, one per direction
	heldDown *msg.Message

	stats FaultStats
}

// NewFaultWire builds the wire around the outbound driver; seed drives
// the schedule PRNG. SetUpper must be called before inbound traffic
// flows.
func NewFaultWire(cfg FaultConfig, seed uint64, alloc *msg.Allocator, down xkernel.Wire) *FaultWire {
	fw := &FaultWire{
		cfg:   cfg,
		alloc: alloc,
		down:  down,
		rng:   sim.NewRand(seed),
	}
	return fw
}

// SetUpper connects the inbound side (normally the FDDI protocol).
func (fw *FaultWire) SetUpper(up xkernel.Demuxer) { fw.up = up }

// Arm starts injecting faults. Called after connection setup so the
// synchronous handshakes cannot deadlock on a dropped SYN.
func (fw *FaultWire) Arm() { fw.armed.Set() }

// Stats returns the per-direction fault counters.
func (fw *FaultWire) Stats() FaultStats { return fw.stats }

// Shutdown frees any frame still parked in a reorder slot.
func (fw *FaultWire) Shutdown(t *sim.Thread) {
	if fw.heldUp != nil {
		fw.heldUp.Free(t)
		fw.heldUp = nil
	}
	if fw.heldDown != nil {
		fw.heldDown.Free(t)
		fw.heldDown = nil
	}
}

// Demux is the inbound path: driver -> [faults] -> FDDI.
func (fw *FaultWire) Demux(t *sim.Thread, m *msg.Message) error {
	if !fw.armed.Get() || !fw.cfg.Up.enabled() {
		return fw.fwdUp(t, m)
	}
	return fw.channel(t, m, &fw.cfg.Up, &fw.stats.Up, &fw.heldUp, fw.fwdUp)
}

// TX is the outbound path: FDDI -> [faults] -> driver.
func (fw *FaultWire) TX(t *sim.Thread, m *msg.Message) error {
	if !fw.armed.Get() || !fw.cfg.Down.enabled() {
		return fw.down.TX(t, m)
	}
	return fw.channel(t, m, &fw.cfg.Down, &fw.stats.Down, &fw.heldDown, fw.fwdDown)
}

func (fw *FaultWire) fwdDown(t *sim.Thread, m *msg.Message) error {
	return swallowChecksumReject(fw.down.TX(t, m))
}

func (fw *FaultWire) fwdUp(t *sim.Thread, m *msg.Message) error {
	return swallowChecksumReject(fw.up.Demux(t, m))
}

// swallowChecksumReject absorbs the transport's rejection of a frame we
// corrupted on purpose: to the sender that frame is simply lost, not an
// error worth killing a pump thread over.
func swallowChecksumReject(err error) error {
	if errors.Is(err, tcp.ErrBadChecksum) || errors.Is(err, udp.ErrBadChecksum) {
		return nil
	}
	return err
}

// channel applies one direction's fault schedule to a frame and
// forwards whatever survives.
func (fw *FaultWire) channel(t *sim.Thread, m *msg.Message, r *FaultRates,
	ds *FaultDirStats, held **msg.Message, fwd func(*sim.Thread, *msg.Message) error) error {
	ds.Frames++

	if r.Drop > 0 && fw.rng.Float64() < r.Drop {
		ds.Dropped++
		noteFault(t, "drop")
		m.Free(t)
		return fw.release(t, held, fwd)
	}
	if r.Corrupt > 0 && fw.rng.Float64() < r.Corrupt {
		c, err := fw.corrupt(t, m)
		if err != nil {
			return err
		}
		m = c
		ds.Corrupted++
		noteFault(t, "corrupt")
	}
	if r.Dup > 0 && fw.rng.Float64() < r.Dup {
		ds.Duplicated++
		noteFault(t, "dup")
		d := m.Clone(t)
		if err := fwd(t, m); err != nil {
			d.Free(t)
			return err
		}
		m = d
	}
	if r.Reorder > 0 && *held == nil && fw.rng.Float64() < r.Reorder {
		// Park this frame; it goes out after the next one, swapping the
		// pair on the wire.
		ds.Reordered++
		noteFault(t, "reorder")
		*held = m
		return nil
	}
	if err := fwd(t, m); err != nil {
		return err
	}
	return fw.release(t, held, fwd)
}

// noteFault records an injection of the named kind.
func noteFault(t *sim.Thread, kind string) {
	if rec := t.Engine().Rec; rec != nil {
		rec.Record(t.Proc, trace.Event{TS: t.Now(), Kind: trace.EvFault, Name: kind})
	}
}

// release forwards a previously held (reordered) frame, if any.
func (fw *FaultWire) release(t *sim.Thread, held **msg.Message, fwd func(*sim.Thread, *msg.Message) error) error {
	h := *held
	if h == nil {
		return nil
	}
	*held = nil
	return fwd(t, h)
}

// corrupt returns a privately owned, damaged copy of the frame and
// frees the original. Copying matters: outbound frames share their
// buffer with TCP's retransmission queue, and damaging those bytes in
// place would corrupt the retransmitted copy too. The damage is one
// flipped payload bit plus a bogus (nonzero) transport checksum, so
// receivers that verify see a mismatch and receivers that trust a
// zero "didn't checksum" field cannot mistake the frame for clean.
func (fw *FaultWire) corrupt(t *sim.Thread, m *msg.Message) (*msg.Message, error) {
	b, err := m.Peek(m.Len())
	if err != nil {
		m.Free(t)
		return nil, err
	}
	c, err := fw.alloc.New(t, len(b), 0)
	if err != nil {
		m.Free(t)
		return nil, err
	}
	if err := c.CopyTemplate(0, b); err != nil {
		c.Free(t)
		m.Free(t)
		return nil, err
	}
	c.Seq = m.Seq
	c.Born = m.Born
	m.Free(t)
	cb, _ := c.Peek(c.Len())

	ckOff, payOff := -1, -1
	if len(cb) > offIP+9 {
		switch cb[offIP+9] {
		case 6: // TCP
			if len(cb) >= tcpFrameHdr {
				ckOff, payOff = offTCP+18, tcpFrameHdr
			}
		case 17: // UDP
			if len(cb) >= udpFrameHdr {
				ckOff, payOff = offUDP+6, udpFrameHdr
			}
		}
	}
	if payOff >= 0 && len(cb) > payOff {
		i := payOff + fw.rng.Intn(len(cb)-payOff)
		cb[i] ^= 1 << uint(fw.rng.Intn(8))
	}
	if ckOff >= 0 {
		bad := binary.BigEndian.Uint16(cb[ckOff:]) ^ 0xBAD1
		if bad == 0 {
			bad = 0x1BAD
		}
		binary.BigEndian.PutUint16(cb[ckOff:], bad)
	}
	return c, nil
}

var (
	_ xkernel.Wire    = (*FaultWire)(nil)
	_ xkernel.Demuxer = (*FaultWire)(nil)
)
