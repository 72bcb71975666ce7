package msg

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// run executes body on a one-thread simulation.
func run(t *testing.T, body func(th *sim.Thread)) {
	t.Helper()
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	e.Spawn("test", 0, body)
	e.Run()
}

func newAlloc(cache bool) *Allocator {
	cfg := DefaultConfig(8)
	cfg.CacheEnabled = cache
	return NewAllocator(cfg)
}

func TestNewMessageShape(t *testing.T) {
	run(t, func(th *sim.Thread) {
		a := newAlloc(true)
		m, err := a.New(th, 1024, Headroom)
		if err != nil {
			t.Fatal(err)
		}
		if m.Len() != 1024 {
			t.Errorf("Len = %d, want 1024", m.Len())
		}
		if m.Headroom() != Headroom {
			t.Errorf("Headroom = %d, want %d", m.Headroom(), Headroom)
		}
		m.Free(th)
	})
}

func TestPushPopRoundTrip(t *testing.T) {
	run(t, func(th *sim.Thread) {
		a := newAlloc(true)
		m, _ := a.New(th, 16, Headroom)
		if err := m.CopyIn(th, 0, bytes.Repeat([]byte{0xAA}, 16)); err != nil {
			t.Fatal(err)
		}
		h, err := m.Push(th, 8)
		if err != nil {
			t.Fatal(err)
		}
		copy(h, "HDRHDR!!")
		if m.Len() != 24 {
			t.Fatalf("Len after push = %d, want 24", m.Len())
		}
		got, err := m.Pop(th, 8)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "HDRHDR!!" {
			t.Errorf("popped %q", got)
		}
		if m.Len() != 16 || m.Bytes()[0] != 0xAA {
			t.Error("payload damaged by push/pop")
		}
		m.Free(th)
	})
}

func TestPushBeyondHeadroomFails(t *testing.T) {
	run(t, func(th *sim.Thread) {
		a := newAlloc(true)
		m, _ := a.New(th, 8, 4)
		if _, err := m.Push(th, 8); err != ErrNoRoom {
			t.Errorf("err = %v, want ErrNoRoom", err)
		}
		m.Free(th)
	})
}

func TestPopBeyondLengthFails(t *testing.T) {
	run(t, func(th *sim.Thread) {
		a := newAlloc(true)
		m, _ := a.New(th, 8, Headroom)
		if _, err := m.Pop(th, 9); err != ErrNoRoom {
			t.Errorf("err = %v, want ErrNoRoom", err)
		}
		m.Free(th)
	})
}

func TestCloneSharesDataUntilPush(t *testing.T) {
	run(t, func(th *sim.Thread) {
		a := newAlloc(true)
		m, _ := a.New(th, 32, Headroom)
		m.CopyIn(th, 0, bytes.Repeat([]byte{7}, 32))
		c := m.Clone(th)
		if m.Refs() != 2 {
			t.Fatalf("refs = %d, want 2", m.Refs())
		}
		// Pushing a header on the clone must not corrupt the original
		// (copy-on-write).
		h, err := c.Push(th, 4)
		if err != nil {
			t.Fatal(err)
		}
		copy(h, "XXXX")
		if m.Bytes()[0] != 7 {
			t.Error("original corrupted by clone push")
		}
		if m.Refs() != 1 {
			t.Errorf("original refs = %d after clone privatized, want 1", m.Refs())
		}
		c.Free(th)
		m.Free(th)
	})
}

func TestFragmentViews(t *testing.T) {
	run(t, func(th *sim.Thread) {
		a := newAlloc(true)
		m, _ := a.New(th, 100, Headroom)
		for i := 0; i < 100; i++ {
			m.Bytes()[i] = byte(i)
		}
		f1, err := m.Fragment(th, 0, 60)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := m.Fragment(th, 60, 40)
		if err != nil {
			t.Fatal(err)
		}
		if m.Refs() != 3 {
			t.Fatalf("refs = %d, want 3", m.Refs())
		}
		if f1.Len() != 60 || f2.Len() != 40 {
			t.Fatalf("fragment lengths %d/%d", f1.Len(), f2.Len())
		}
		if f2.Bytes()[0] != 60 {
			t.Errorf("f2[0] = %d, want 60", f2.Bytes()[0])
		}
		if _, err := m.Fragment(th, 90, 20); err != ErrNoRoom {
			t.Errorf("out-of-range fragment err = %v", err)
		}
		f1.Free(th)
		f2.Free(th)
		m.Free(th)
	})
}

func TestJoinReassembles(t *testing.T) {
	run(t, func(th *sim.Thread) {
		a := newAlloc(true)
		var parts []*Message
		var want []byte
		for i := 0; i < 3; i++ {
			p, _ := a.New(th, 10, Headroom)
			for j := 0; j < 10; j++ {
				p.Bytes()[j] = byte(i*10 + j)
				want = append(want, byte(i*10+j))
			}
			parts = append(parts, p)
		}
		whole, err := Join(th, a, parts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(whole.Bytes(), want) {
			t.Error("join produced wrong bytes")
		}
		whole.Free(th)
	})
}

func TestCacheLIFOReuse(t *testing.T) {
	run(t, func(th *sim.Thread) {
		a := newAlloc(true)
		m, _ := a.New(th, 1024, Headroom)
		m.Free(th)
		m2, _ := a.New(th, 1024, Headroom)
		s := a.Stats()
		if s.CacheHits != 1 {
			t.Errorf("cache hits = %d, want 1 (LIFO reuse)", s.CacheHits)
		}
		m2.Free(th)
	})
}

func TestCacheDisabledUsesArena(t *testing.T) {
	run(t, func(th *sim.Thread) {
		a := newAlloc(false)
		m, _ := a.New(th, 1024, Headroom)
		m.Free(th)
		m2, _ := a.New(th, 1024, Headroom)
		m2.Free(th)
		s := a.Stats()
		if s.CacheHits != 0 {
			t.Errorf("cache hits = %d, want 0", s.CacheHits)
		}
		if a.ArenaLockStats().Acquires < 4 {
			t.Errorf("arena lock acquires = %d, want >= 4", a.ArenaLockStats().Acquires)
		}
	})
}

func TestCachedAllocCheaperUnderContention(t *testing.T) {
	elapsed := func(cache bool) int64 {
		e := sim.New(cost.NewModel(cost.Challenge100), 5)
		a := newAlloc(cache)
		for i := 0; i < 8; i++ {
			e.Spawn(fmt.Sprintf("w%d", i), i, func(th *sim.Thread) {
				for j := 0; j < 50; j++ {
					m, err := a.New(th, 4096, Headroom)
					if err != nil {
						t.Error(err)
						return
					}
					th.Charge(3000)
					m.Free(th)
				}
			})
		}
		e.Run()
		return e.Now()
	}
	with, without := elapsed(true), elapsed(false)
	if with >= without {
		t.Fatalf("cached allocation (%d ns) not faster than arena (%d ns)", with, without)
	}
}

func TestPerProcessorCachesAreIndependent(t *testing.T) {
	e := sim.New(cost.NewModel(cost.Challenge100), 6)
	a := newAlloc(true)
	// Proc 0 frees a node; proc 1 must not find it in its own cache.
	e.Spawn("p0", 0, func(th *sim.Thread) {
		m, _ := a.New(th, 256, 0)
		m.Free(th)
	})
	e.Run()
	e2 := sim.New(cost.NewModel(cost.Challenge100), 7)
	e2.Spawn("p1", 1, func(th *sim.Thread) {
		m, _ := a.New(th, 256, 0)
		if a.Stats().CacheHits != 0 {
			t.Error("proc 1 hit proc 0's cache")
		}
		m.Free(th)
	})
	e2.Run()
}

func TestOversizeAllocationFails(t *testing.T) {
	run(t, func(th *sim.Thread) {
		a := newAlloc(true)
		if _, err := a.New(th, 1<<20, 0); err == nil {
			t.Fatal("expected error for oversize allocation")
		}
	})
}

func TestTrimFrontBack(t *testing.T) {
	run(t, func(th *sim.Thread) {
		a := newAlloc(true)
		m, _ := a.New(th, 20, Headroom)
		for i := range m.Bytes() {
			m.Bytes()[i] = byte(i)
		}
		if err := m.TrimFront(th, 5); err != nil {
			t.Fatal(err)
		}
		if err := m.TrimBack(th, 5); err != nil {
			t.Fatal(err)
		}
		if m.Len() != 10 || m.Bytes()[0] != 5 {
			t.Errorf("after trims: len=%d first=%d", m.Len(), m.Bytes()[0])
		}
		if err := m.TrimBack(th, 11); err != ErrNoRoom {
			t.Errorf("overtrim err = %v", err)
		}
		m.Free(th)
	})
}

func TestPeekDoesNotConsume(t *testing.T) {
	run(t, func(th *sim.Thread) {
		a := newAlloc(true)
		m, _ := a.New(th, 10, Headroom)
		m.Bytes()[0] = 42
		b, err := m.Peek(4)
		if err != nil || b[0] != 42 {
			t.Fatalf("peek = %v, %v", b, err)
		}
		if m.Len() != 10 {
			t.Error("peek consumed bytes")
		}
		m.Free(th)
	})
}

func TestRefcountUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	run(t, func(th *sim.Thread) {
		a := newAlloc(true)
		m, _ := a.New(th, 10, 0)
		c := *m // simulate a buggy aliased view
		m.Free(th)
		c.Free(th)
	})
}

// TestMergeAbsorbZeroAllocs enforces the batching subsystem's host-cost
// contract: the GRO merge path (a head with grow-room absorbing 1 KB
// donors, replaced when full) allocates nothing once the per-processor
// free lists are warm — every head and donor is recycled and the merge
// is a copy into existing tail space.
func TestMergeAbsorbZeroAllocs(t *testing.T) {
	const seg, grow = 1024, 6 * 1024
	a := NewAllocator(DefaultConfig(4))
	run(t, func(th *sim.Thread) {
		newHead := func() *Message {
			h, err := a.New(th, seg+grow, Headroom)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.TrimBack(th, grow); err != nil {
				t.Fatal(err)
			}
			return h
		}
		head := newHead()
		allocs := testing.AllocsPerRun(100, func() {
			if head.Tailroom() < seg {
				head.Free(th)
				head = newHead()
			}
			d, err := a.New(th, seg, Headroom)
			if err != nil {
				t.Fatal(err)
			}
			if err := head.Absorb(th, d); err != nil {
				t.Fatal(err)
			}
		})
		head.Free(th)
		if allocs != 0 {
			t.Errorf("merge path allocates %v times per absorbed segment, want 0", allocs)
		}
	})
}
