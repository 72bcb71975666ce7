package msg

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"
	"unsafe"

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

// TestCrossProcZeroAllocs is the steered receive path's allocation
// shape, which no same-processor test has: processor A (the NIC)
// allocates, processor B (a worker) frees. B's cache fills, the
// overflow returns through the arena to A, and once that loop is
// primed — CacheDepth rounds — nothing is allocated again, because each
// node brings its view struct back with it. The gro case adds the
// batching dispatcher's work on A: a head with grow-room absorbing
// donors before the merged frame crosses to B.
func TestCrossProcZeroAllocs(t *testing.T) {
	const procA, procB = 0, 1
	const seg, donors = 1024, 3
	for _, c := range []struct {
		name  string
		round func(th *sim.Thread, a *Allocator) *Message // on A; the result is freed on B
	}{
		{"plain", func(th *sim.Thread, a *Allocator) *Message {
			m, err := a.New(th, seg, Headroom)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"gro", func(th *sim.Thread, a *Allocator) *Message {
			head, err := a.New(th, (1+donors)*seg, Headroom)
			if err != nil {
				t.Fatal(err)
			}
			if err := head.TrimBack(th, donors*seg); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < donors; i++ {
				d, err := a.New(th, seg, Headroom)
				if err != nil {
					t.Fatal(err)
				}
				if err := head.Absorb(th, d); err != nil {
					t.Fatal(err)
				}
			}
			return head
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := NewAllocator(DefaultConfig(4))
			run(t, func(th *sim.Thread) {
				round := func() {
					th.MigrateTo(procA)
					m := c.round(th, a)
					th.MigrateTo(procB)
					m.Free(th)
				}
				for i := 0; i <= a.cfg.CacheDepth; i++ {
					round()
				}
				if allocs := testing.AllocsPerRun(10_000, round); allocs != 0 {
					t.Errorf("allocate on proc %d, free on proc %d: %v allocations per round, want 0", procA, procB, allocs)
				}
			})
		})
	}
}

// TestHostBackendViewCrossesProcs is the cross-processor shape on real
// goroutines: one allocates and fills, the other checks and frees, so a
// view struct is parked by one goroutine and taken by the other. With a
// cache this shallow most nodes come home through the arena, whose lock
// is then the only thing ordering the two; -race sees a hand-off that
// skips it, and a view recycled while its holder still reads it shows
// as a wrong Seq.
func TestHostBackendViewCrossesProcs(t *testing.T) {
	const rounds = 5000
	cfg := DefaultConfig(2)
	cfg.CacheDepth = 2
	a := NewAllocator(cfg)
	e := sim.NewBackend(cost.NewModel(cost.Challenge100), 1, sim.BackendHost)
	q := sim.NewQueue("handoff", 16)
	e.Spawn("alloc", 0, func(th *sim.Thread) {
		defer q.Close(th)
		for i := 0; i < rounds; i++ {
			m, err := a.New(th, 64, Headroom)
			if err != nil {
				t.Error(err)
				return
			}
			m.Seq = uint64(i)
			m.Bytes()[0] = byte(i)
			if !q.Enqueue(th, m) {
				t.Error("queue closed under the producer")
				return
			}
		}
	})
	e.Spawn("free", 1, func(th *sim.Thread) {
		for i := 0; ; i++ {
			item, ok := q.Dequeue(th)
			if !ok {
				if i != rounds {
					t.Errorf("%d messages crossed, want %d", i, rounds)
				}
				return
			}
			m := item.(*Message)
			if m.Seq != uint64(i) || m.Bytes()[0] != byte(i) {
				t.Errorf("message %d arrived as Seq %d, first byte %d", i, m.Seq, m.Bytes()[0])
			}
			m.Free(th)
		}
	})
	e.Run()
	// At most the queue's 16, one in each thread's hands and the freeing
	// processor's two cached are out of the arena at once.
	if s := a.Stats(); s.Frees != rounds || s.ArenaAllocs > 20 {
		t.Errorf("%d frees and %d buffers created for %d rounds; want %d and at most 20 (the rest recycled through the arena)",
			s.Frees, s.ArenaAllocs, rounds, rounds)
	}
}

// TestHostBackendNodeCachesCrossProcs runs the node caches at their
// default depth on real goroutines, in the steered path's shape: a
// producer on proc 0 allocates every data buffer and a consumer on proc 1
// frees it. The nodes pile into proc 1's cache until it is full and
// then spill through the arena back to proc 0, which misses every time.
// The consumer also allocates and frees a small reply each round, which
// its own cache serves. Both goroutines work their own processor's
// lists and counters at once, so -race reports any cache state the two
// share, and the summed Stats must come out exact.
func TestHostBackendNodeCachesCrossProcs(t *testing.T) {
	const rounds = 20_000
	const data, reply = 1024, 16 // two size classes
	a := NewAllocator(DefaultConfig(2))
	depth := a.cfg.CacheDepth
	e := sim.NewBackend(cost.NewModel(cost.Challenge100), 1, sim.BackendHost)
	q := sim.NewQueue("handoff", 16)
	e.Spawn("producer", 0, func(th *sim.Thread) {
		defer q.Close(th)
		for i := 0; i < rounds; i++ {
			m, err := a.New(th, data, Headroom)
			if err != nil {
				t.Error(err)
				return
			}
			m.Seq = uint64(i)
			m.Bytes()[0] = byte(i)
			if !q.Enqueue(th, m) {
				t.Error("queue closed under the producer")
				return
			}
		}
	})
	e.Spawn("consumer", 1, func(th *sim.Thread) {
		for i := 0; ; i++ {
			item, ok := q.Dequeue(th)
			if !ok {
				if i != rounds {
					t.Errorf("%d messages crossed, want %d", i, rounds)
				}
				return
			}
			m := item.(*Message)
			if m.Seq != uint64(i) || m.Bytes()[0] != byte(i) {
				t.Errorf("message %d arrived as Seq %d, first byte %d", i, m.Seq, m.Bytes()[0])
			}
			m.Free(th)
			r, err := a.New(th, reply, Headroom)
			if err != nil {
				t.Error(err)
				return
			}
			r.Free(th)
		}
	})
	e.Run()
	// Proc 0 misses on every round and proc 1 on its first reply only.
	// Every node comes back: proc 1 keeps the first depth data nodes and
	// spills the rest, which proc 0's misses take from the arena.
	s := a.Stats()
	want := Stats{CacheHits: rounds - 1, CacheMisses: rounds + 1, ArenaAllocs: s.ArenaAllocs, Frees: 2 * rounds}
	if s != want {
		t.Errorf("stats %+v, want %+v", s, want)
	}
	cl, _ := classFor(data + Headroom)
	if got := a.perProc[1].count[cl]; got != depth {
		t.Errorf("proc 1 caches %d data nodes, want a full %d", got, depth)
	}
	if got, want := a.ArenaLockStats().Acquires, s.CacheMisses+int64(rounds-depth); got != want {
		t.Errorf("%d arena lock acquires, want %d misses plus %d spills", got, s.CacheMisses, rounds-depth)
	}
	// Fresh data nodes: at least a full cache plus the first spill, at
	// most that cache, the queue's 16 and one in each thread's hands;
	// plus the one reply node.
	if s.ArenaAllocs < int64(depth)+2 || s.ArenaAllocs > int64(depth)+19 {
		t.Errorf("%d buffers created, want %d to %d", s.ArenaAllocs, depth+2, depth+19)
	}
}

// TestProcCacheFillsLines guards the padding: a processor's allocator
// state must end on a cache-line boundary, or its neighbour's lists and
// counters share the line.
func TestProcCacheFillsLines(t *testing.T) {
	if size := unsafe.Sizeof(procCache{}); size%cacheLine != 0 {
		t.Errorf("procCache is %d bytes, not a multiple of the %d-byte line", size, cacheLine)
	}
}

// TestReleasedNodeStartsFresh: a node allocator A releases and
// allocator B draws is, to B, a new buffer. Its first use on another
// processor charges exactly what a fresh node's does (no cold penalty
// for A's processor), B counts it as an arena allocation, its Free lands
// in B's cache, and A's counters do not move. A message A still holds
// at Release stays A's: no draw of B's gets its node. (Under the race
// detector sync.Pool drops a random quarter of its Puts; with 15 nodes
// released, B's first draw finds none left about once in 10^9 runs.)
func TestReleasedNodeStartsFresh(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection may empty the pool
	const size, procA, procB, n = 1024, 0, 1, 16
	cl, _ := classFor(size + Headroom)
	for released[cl].Get() != nil { // what an earlier run of this test left
	}
	onProc := func(proc int, body func(th *sim.Thread)) {
		e := sim.New(cost.NewModel(cost.Challenge100), 9)
		e.Spawn("test", proc, body)
		e.Run()
	}
	firstNew := func(b *Allocator) (m *Message, ns int64) {
		onProc(procB, func(th *sim.Thread) {
			t0 := th.Now()
			m, _ = b.New(th, size, Headroom)
			ns = th.Now() - t0
		})
		return m, ns
	}
	_, freshNs := firstNew(newAlloc(true))

	a := newAlloc(true)
	var live *Message
	onProc(procA, func(th *sim.Thread) {
		ms := make([]*Message, n)
		for i := range ms {
			ms[i], _ = a.New(th, size, Headroom)
			copy(ms[i].Bytes(), bytes.Repeat([]byte{0xAB}, size))
		}
		live = ms[0]
		for _, m := range ms[1:] {
			m.Free(th)
		}
	})
	a.Release()
	aStats := a.Stats()

	b := newAlloc(true)
	m, ns := firstNew(b)
	if m.node == live.node {
		t.Fatal("B drew the node of a message A still holds")
	}
	if m.Bytes()[0] != 0xAB {
		t.Fatal("B's first buffer is not one A released")
	}
	if ns != freshNs {
		t.Errorf("first use of a released node on proc %d took %d ns, a fresh node's %d", procB, ns, freshNs)
	}
	onProc(procB, func(th *sim.Thread) {
		node := m.node
		m.Free(th)
		if b.perProc[procB].free[cl] != node {
			t.Error("the released node's Free did not land in B's cache")
		}
		for i := 0; i < 2*n; i++ { // every node left in the pool, and then some
			m, _ := b.New(th, size, Headroom)
			if m.node == live.node {
				t.Error("B drew the node of a message A still holds")
				return
			}
			copy(m.Bytes(), bytes.Repeat([]byte{0xFF}, size))
		}
	})
	if got, want := b.Stats(), (Stats{CacheHits: 1, CacheMisses: 2 * n, ArenaAllocs: 2 * n, Frees: 1}); got != want {
		t.Errorf("B's stats %+v, want %+v", got, want)
	}
	if got := a.Stats(); got != aStats {
		t.Errorf("A's stats moved after Release: %+v, then %+v", aStats, got)
	}
	if !bytes.Equal(live.Bytes(), bytes.Repeat([]byte{0xAB}, size)) {
		t.Error("a message A still holds was overwritten")
	}
}
