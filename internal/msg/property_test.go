package msg

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// TestMessageOpsAgainstReferenceModel drives random sequences of
// message operations (push, pop, trim front/back) against a plain
// byte-slice model; the views must agree after every step.
func TestMessageOpsAgainstReferenceModel(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			e := sim.New(cost.NewModel(cost.Challenge100), uint64(trial))
			e.Spawn("test", 0, func(th *sim.Thread) {
				rng := sim.NewRand(uint64(trial*101 + 3))
				a := NewAllocator(DefaultConfig(4))
				size := 64 + rng.Intn(512)
				m, err := a.New(th, size, Headroom)
				if err != nil {
					t.Error(err)
					return
				}
				model := make([]byte, size)
				for i := range model {
					model[i] = byte(rng.Intn(256))
				}
				if err := m.CopyIn(th, 0, model); err != nil {
					t.Error(err)
					return
				}
				headroomLeft := Headroom
				for step := 0; step < 60; step++ {
					switch rng.Intn(4) {
					case 0: // push a header
						n := 1 + rng.Intn(16)
						h, err := m.Push(th, n)
						if n > headroomLeft {
							if err != ErrNoRoom {
								t.Errorf("step %d: push beyond headroom err=%v", step, err)
								return
							}
							continue
						}
						if err != nil {
							t.Errorf("step %d: push: %v", step, err)
							return
						}
						hdr := make([]byte, n)
						for i := range hdr {
							hdr[i] = byte(rng.Intn(256))
						}
						copy(h, hdr)
						model = append(hdr, model...)
						headroomLeft -= n
					case 1: // pop a header
						n := 1 + rng.Intn(16)
						h, err := m.Pop(th, n)
						if n > len(model) {
							if err != ErrNoRoom {
								t.Errorf("step %d: pop beyond len err=%v", step, err)
								return
							}
							continue
						}
						if err != nil {
							t.Errorf("step %d: pop: %v", step, err)
							return
						}
						if !bytes.Equal(h, model[:n]) {
							t.Errorf("step %d: popped bytes differ", step)
							return
						}
						model = model[n:]
						headroomLeft += n
					case 2: // trim front
						n := 1 + rng.Intn(8)
						err := m.TrimFront(th, n)
						if n > len(model) {
							if err != ErrNoRoom {
								t.Errorf("step %d: overtrim front err=%v", step, err)
								return
							}
							continue
						}
						if err != nil {
							t.Errorf("step %d: trim front: %v", step, err)
							return
						}
						model = model[n:]
						headroomLeft += n
					case 3: // trim back
						n := 1 + rng.Intn(8)
						err := m.TrimBack(th, n)
						if n > len(model) {
							if err != ErrNoRoom {
								t.Errorf("step %d: overtrim back err=%v", step, err)
								return
							}
							continue
						}
						if err != nil {
							t.Errorf("step %d: trim back: %v", step, err)
							return
						}
						model = model[:len(model)-n]
					}
					if m.Len() != len(model) {
						t.Errorf("step %d: len %d != model %d", step, m.Len(), len(model))
						return
					}
					if !bytes.Equal(m.Bytes(), model) {
						t.Errorf("step %d: contents diverged", step)
						return
					}
				}
				m.Free(th)
			})
			e.Run()
		})
	}
}

// TestFragmentViewsMatchModel: random fragment views must always see
// exactly their slice of the parent.
func TestFragmentViewsMatchModel(t *testing.T) {
	e := sim.New(cost.NewModel(cost.Challenge100), 9)
	e.Spawn("test", 0, func(th *sim.Thread) {
		rng := sim.NewRand(1234)
		a := NewAllocator(DefaultConfig(4))
		m, _ := a.New(th, 1000, Headroom)
		model := make([]byte, 1000)
		for i := range model {
			model[i] = byte(rng.Intn(256))
		}
		m.CopyIn(th, 0, model)
		for i := 0; i < 100; i++ {
			off := rng.Intn(1000)
			n := rng.Intn(1000 - off + 1)
			f, err := m.Fragment(th, off, n)
			if err != nil {
				t.Errorf("fragment(%d,%d): %v", off, n, err)
				return
			}
			if !bytes.Equal(f.Bytes(), model[off:off+n]) {
				t.Errorf("fragment(%d,%d) content mismatch", off, n)
				return
			}
			f.Free(th)
		}
		if m.Refs() != 1 {
			t.Errorf("refs leaked: %d", m.Refs())
		}
		m.Free(th)
	})
	e.Run()
}

// ownershipGolden holds, per seed, what TestOwnershipAcrossProcs's run
// read on the tree before views travelled with their nodes (PR 20):
// where a view struct is kept between uses is a host matter and must
// move neither a counter nor a charged nanosecond.
var ownershipGolden = [...]struct {
	stats Stats
	now   int64
}{
	{Stats{CacheHits: 617, CacheMisses: 175, ArenaAllocs: 68, Frees: 792}, 90400734},
	{Stats{CacheHits: 614, CacheMisses: 170, ArenaAllocs: 69, Frees: 784}, 88544249},
	{Stats{CacheHits: 627, CacheMisses: 177, ArenaAllocs: 67, Frees: 804}, 87612813},
	{Stats{CacheHits: 624, CacheMisses: 173, ArenaAllocs: 75, Frees: 797}, 88902257},
	{Stats{CacheHits: 631, CacheMisses: 176, ArenaAllocs: 72, Frees: 807}, 88369757},
	{Stats{CacheHits: 633, CacheMisses: 180, ArenaAllocs: 67, Frees: 813}, 90146127},
}

// TestOwnershipAcrossProcs drives New, Clone, Fragment, Push (which
// privatizes a shared node), Absorb and Free in random order from a
// thread that keeps changing processor, against a byte-slice model.
// After every step no two live handles share a view struct and every
// handle still reads its model's bytes; at the end every node's count is
// back to zero, every node sits on a free list, and the counters and
// the clock equal ownershipGolden's.
func TestOwnershipAcrossProcs(t *testing.T) {
	type handle struct {
		m     *Message
		model []byte
	}
	for seed := range ownershipGolden {
		cfg := DefaultConfig(4)
		cfg.CacheDepth = 4 // overflow to the arena, so nodes change processor
		a := NewAllocator(cfg)
		e := sim.New(cost.NewModel(cost.Challenge100), uint64(seed))
		e.Spawn("test", 0, func(th *sim.Thread) {
			rng := sim.NewRand(uint64(seed*977 + 11))
			var live []handle
			nodes := map[*MNode]bool{}
			fill := func(n int) []byte {
				b := make([]byte, n)
				for i := range b {
					b[i] = byte(rng.Intn(256))
				}
				return b
			}
			drop := func(i int) {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for step := 0; step < 4000; step++ {
				th.MigrateTo(rng.Intn(4))
				op := rng.Intn(6)
				if len(live) == 0 || (op == 0 && len(live) < 24) {
					op = -1
				} else if (op == 2 || op == 3) && len(live) >= 48 {
					op = 1
				}
				var i int
				var h *handle
				if op >= 0 {
					i = rng.Intn(len(live))
					h = &live[i]
				}
				switch op {
				case -1: // new, on whichever processor the thread is on
					size := 1 + rng.Intn(1500)
					grow := rng.Intn(2) * 1024
					m, err := a.New(th, size+grow, rng.Intn(2)*Headroom)
					if err != nil {
						t.Errorf("seed %d step %d: New: %v", seed, step, err)
						return
					}
					if err := m.TrimBack(th, grow); err != nil {
						t.Errorf("seed %d step %d: TrimBack: %v", seed, step, err)
						return
					}
					live = append(live, handle{m, fill(size)})
					copy(m.Bytes(), live[len(live)-1].model)
				case 0, 1: // free
					h.m.Free(th)
					drop(i)
				case 2: // clone
					live = append(live, handle{h.m.Clone(th), h.model})
				case 3: // fragment
					off := rng.Intn(len(h.model) + 1)
					n := rng.Intn(len(h.model) - off + 1)
					f, err := h.m.Fragment(th, off, n)
					if err != nil {
						t.Errorf("seed %d step %d: Fragment: %v", seed, step, err)
						return
					}
					live = append(live, handle{f, h.model[off : off+n]})
				case 4: // push, privatizing a shared node
					n := 1 + rng.Intn(16)
					fits := h.m.Refs() > 1 || h.m.Headroom() >= n
					hdr, err := h.m.Push(th, n)
					if !fits {
						if err != ErrNoRoom {
							t.Errorf("seed %d step %d: Push beyond headroom: %v", seed, step, err)
							return
						}
						break
					}
					if err != nil {
						t.Errorf("seed %d step %d: Push: %v", seed, step, err)
						return
					}
					h.model = append(fill(n), h.model...)
					copy(hdr, h.model)
				case 5: // absorb another handle
					j := rng.Intn(len(live))
					if j == i || len(h.model)+len(live[j].model) > 4000 {
						break
					}
					d := live[j]
					room := h.m.Tailroom()
					if h.m.Refs() > 1 { // privatize re-homes the view first
						cl, _ := classFor(len(h.model) + Headroom)
						room = classes[cl] - Headroom - len(h.model)
					}
					err := h.m.Absorb(th, d.m)
					if room < len(d.model) {
						if err != ErrNoRoom {
							t.Errorf("seed %d step %d: Absorb without room: %v", seed, step, err)
							return
						}
						break
					}
					if err != nil {
						t.Errorf("seed %d step %d: Absorb: %v", seed, step, err)
						return
					}
					h.model = append(h.model[:len(h.model):len(h.model)], d.model...)
					drop(j) // h is stale from here: drop may have moved it
				}
				views := map[*Message]bool{}
				for _, h := range live {
					if views[h.m] {
						t.Errorf("seed %d step %d (op %d): two live handles share view %p", seed, step, op, h.m)
						return
					}
					views[h.m] = true
					nodes[h.m.node] = true
					if !bytes.Equal(h.m.Bytes(), h.model) {
						t.Errorf("seed %d step %d (op %d): a handle's bytes diverged from its model", seed, step, op)
						return
					}
				}
			}
			for _, h := range live {
				h.m.Free(th)
			}
			parked := 0
			for p := range a.perProc {
				for _, n := range a.perProc[p].free {
					for ; n != nil; n = n.next {
						parked++
					}
				}
			}
			for _, n := range a.arena {
				for ; n != nil; n = n.next {
					parked++
				}
			}
			for n := range nodes {
				if v := n.ref.Value(); v != 0 {
					t.Errorf("seed %d: a node ends with count %d", seed, v)
				}
			}
			if s := a.Stats(); int64(parked) != s.ArenaAllocs || int64(len(nodes)) != s.ArenaAllocs {
				t.Errorf("seed %d: %d nodes seen, %d on free lists, %d ever created", seed, len(nodes), parked, s.ArenaAllocs)
			}
		})
		e.Run()
		if got, want := a.Stats(), ownershipGolden[seed].stats; got != want || e.Now() != ownershipGolden[seed].now {
			t.Errorf("seed %d: stats %+v now %d, want %+v now %d", seed, got, e.Now(), want, ownershipGolden[seed].now)
		}
	}
}
