package fddi

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
)

func run(t *testing.T, body func(th *sim.Thread)) {
	t.Helper()
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	e.Spawn("test", 0, body)
	e.Run()
}

// loopWire feeds every transmitted frame straight back into the
// protocol's Demux on the calling thread.
type loopWire struct{ p *Protocol }

func (w *loopWire) TX(t *sim.Thread, m *msg.Message) error {
	return w.p.Demux(t, m)
}

// sink records delivered messages.
type sink struct {
	ref  sim.RefCount
	msgs []*msg.Message
	errs int
}

func newSink() *sink {
	s := &sink{}
	s.ref.Init(sim.RefAtomic, 1)
	return s
}

func (s *sink) Demux(t *sim.Thread, m *msg.Message) error {
	s.msgs = append(s.msgs, m)
	return nil
}

func (s *sink) Ref() *sim.RefCount { return &s.ref }

func newStack(t *testing.T, th *sim.Thread) (*Protocol, *sink, *msg.Allocator) {
	t.Helper()
	w := &loopWire{}
	p := New(Config{Self: xkernel.MAC{1, 2, 3, 4, 5, 6}, MapLocking: true}, w)
	w.p = p
	up := newSink()
	if err := p.OpenEnable(th, 0x0800, up); err != nil {
		t.Fatal(err)
	}
	return p, up, msg.NewAllocator(msg.DefaultConfig(4))
}

func TestRoundTripPreservesPayload(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p, up, alloc := newStack(t, th)
		m, _ := alloc.New(th, 100, msg.Headroom)
		for i := range m.Bytes() {
			m.Bytes()[i] = byte(i)
		}
		s, err := p.Open(th, xkernel.MAC{9, 9, 9, 9, 9, 9}, 0x0800)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Push(th, m); err != nil {
			t.Fatal(err)
		}
		if len(up.msgs) != 1 {
			t.Fatalf("delivered %d, want 1", len(up.msgs))
		}
		got := up.msgs[0]
		if got.Len() != 100 || got.Bytes()[42] != 42 {
			t.Errorf("payload damaged: len=%d", got.Len())
		}
	})
}

func TestUnknownTypeRejected(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p, _, alloc := newStack(t, th)
		m, _ := alloc.New(th, 10, msg.Headroom)
		s, _ := p.Open(th, xkernel.MAC{}, 0x9999) // no upper registered
		if err := s.Push(th, m); err == nil {
			t.Fatal("expected demux error for unregistered type")
		}
	})
}

func TestMTUEnforced(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p, _, _ := newStack(t, th)
		cfg := msg.DefaultConfig(4)
		alloc := msg.NewAllocator(cfg)
		m, err := alloc.New(th, MTU+1, msg.Headroom)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := p.Open(th, xkernel.MAC{}, 0x0800)
		if err := s.Push(th, m); err != ErrTooBig {
			t.Fatalf("err = %v, want ErrTooBig", err)
		}
	})
}

func TestShortFrameRejected(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p, _, alloc := newStack(t, th)
		m, _ := alloc.New(th, HdrLen-1, 0)
		if err := p.Demux(th, m); err == nil {
			t.Fatal("expected error for short frame")
		}
	})
}

func TestDemuxRefCountDiscipline(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p, up, alloc := newStack(t, th)
		m, _ := alloc.New(th, 10, msg.Headroom)
		s, _ := p.Open(th, xkernel.MAC{}, 0x0800)
		if err := s.Push(th, m); err != nil {
			t.Fatal(err)
		}
		// After the dispatch returns the upper's refcount must be back
		// to its base value.
		if up.Ref().Value() != 1 {
			t.Errorf("upper ref = %d after dispatch, want 1", up.Ref().Value())
		}
	})
}

func TestSessionTemplateAddressing(t *testing.T) {
	run(t, func(th *sim.Thread) {
		var captured []byte
		w := wireFunc(func(t2 *sim.Thread, m *msg.Message) error {
			captured = append([]byte{}, m.Bytes()...)
			return nil
		})
		p := New(Config{Self: xkernel.MAC{0xA, 0xB, 0xC, 0xD, 0xE, 0xF}, MapLocking: true}, w)
		alloc := msg.NewAllocator(msg.DefaultConfig(4))
		s, _ := p.Open(th, xkernel.MAC{1, 1, 1, 1, 1, 1}, 0x0800)
		m, _ := alloc.New(th, 4, msg.Headroom)
		if err := s.Push(th, m); err != nil {
			t.Fatal(err)
		}
		if len(captured) != HdrLen+4 {
			t.Fatalf("frame len = %d", len(captured))
		}
		if captured[1] != 1 || captured[7] != 0xA {
			t.Errorf("addresses wrong: dst[0]=%#x src[0]=%#x", captured[1], captured[7])
		}
		if captured[13] != 0x08 || captured[14] != 0x00 {
			t.Errorf("type field wrong: % x", captured[13:15])
		}
	})
}

type wireFunc func(*sim.Thread, *msg.Message) error

func (f wireFunc) TX(t *sim.Thread, m *msg.Message) error { return f(t, m) }

// TestDemuxMapIsLive: DemuxMap is the type table's own header, not a
// copy: a protocol enabled after it was taken shows in its counters.
func TestDemuxMapIsLive(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p := New(Config{MapLocking: true}, &loopWire{})
		dm := p.DemuxMap()
		if err := p.OpenEnable(th, 0x0800, newSink()); err != nil {
			t.Fatal(err)
		}
		if binds, n := dm.Stats().Binds, dm.Len(th); binds != 1 || n != 1 {
			t.Errorf("DemuxMap after one OpenEnable: %d binds, %d bindings; want 1 and 1", binds, n)
		}
	})
}
