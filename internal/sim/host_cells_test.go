package sim

// The host side of the shared cells: on a BackendHost engine the
// threads are goroutines that really run concurrently, so every test
// here asserts an exact total that a lost update, a torn ownership word
// or a broken exclusion would miss — and the race detector checks the
// rest. The last test runs one random script over every cell on both
// substrates and requires identical results and identical panics.

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"
)

const (
	hostThreads = 4
	hostOps     = 2000
)

// runHost runs body on hostThreads goroutine-threads of a host engine
// and returns the engine.
func runHost(body func(th *Thread)) *Engine {
	e := NewBackend(nil, 1, BackendHost)
	for i := 0; i < hostThreads; i++ {
		e.Spawn(fmt.Sprintf("h%d", i), i, body)
	}
	e.Run()
	return e
}

func TestHostRefCountReachesZeroOnce(t *testing.T) {
	for _, mode := range []RefMode{RefAtomic, RefLocked} {
		t.Run(mode.String(), func(t *testing.T) {
			var rc RefCount
			rc.Init(mode, hostThreads) // one reference per thread
			var zeros, early atomic.Int32
			e := runHost(func(th *Thread) {
				for i := 0; i < hostOps; i++ {
					rc.Incr(th)
					if rc.Decr(th) {
						early.Add(1)
					}
				}
				if rc.Decr(th) {
					zeros.Add(1)
				}
			})
			if early.Load() != 0 || zeros.Load() != 1 || rc.Value() != 0 {
				t.Errorf("zero reported %d times early and %d times at the end, final value %d; want 0, 1, 0",
					early.Load(), zeros.Load(), rc.Value())
			}
			if mode != RefLocked {
				return
			}
			// The pool index shares a word with the mode: storing it
			// must keep the mode, and every manipulation must have gone
			// through the one lock it names.
			if got := RefMode(rc.word & refModeMask); got != RefLocked {
				t.Fatalf("after the run the count reads mode %v, want %v", got, RefLocked)
			}
			i := rc.word>>refPoolShift - 1
			if i < 0 || int(i) >= len(e.refPool) {
				t.Fatalf("pool index %d outside the %d-lock pool", i, len(e.refPool))
			}
			if got, want := e.refPool[i].Stats().Acquires, int64(hostThreads*(2*hostOps+1)); got != want {
				t.Errorf("pool lock %d acquired %d times, want one per manipulation, %d", i, got, want)
			}
		})
	}
}

func TestHostCounterAddHandsOutEachValueOnce(t *testing.T) {
	var c Counter
	seen := make([]atomic.Int32, hostThreads*hostOps)
	runHost(func(th *Thread) {
		for i := 0; i < hostOps; i++ {
			seen[c.Add(th, 1)].Add(1)
		}
	})
	for v := range seen {
		if n := seen[v].Load(); n != 1 {
			t.Fatalf("previous value %d returned %d times, want once", v, n)
		}
	}
	if c.Load() != hostThreads*hostOps {
		t.Errorf("final value %d, want %d", c.Load(), hostThreads*hostOps)
	}
}

func TestHostCountSnapshotWhileWritersRun(t *testing.T) {
	var stat int64
	const total = (hostThreads - 1) * hostOps * 3
	runHost(func(th *Thread) {
		if th.Proc > 0 {
			for i := 0; i < hostOps; i++ {
				th.Count(&stat, 3)
			}
			return
		}
		// The reader: snapshots never go backwards and never overshoot.
		var last int64
		for last < total {
			v := atomic.LoadInt64(&stat)
			if v < last || v > total || v%3 != 0 {
				t.Errorf("snapshot %d after %d (total %d)", v, last, total)
				return
			}
			last = v
			th.Yield()
		}
	})
	if stat != total {
		t.Errorf("final count %d, want %d", stat, total)
	}
}

func TestHostQueueFIFOPerProducer(t *testing.T) {
	type item struct{ producer, seq int }
	q := NewQueue("host", 8)
	var producers RefCount
	producers.Init(RefAtomic, hostThreads/2)
	var consumed atomic.Int64
	runHost(func(th *Thread) {
		if th.Proc < hostThreads/2 {
			for i := 0; i < hostOps; i++ {
				if !q.Enqueue(th, &item{th.Proc, i}) {
					t.Error("enqueue on an open queue failed")
				}
			}
			if producers.Decr(th) {
				q.Close(th)
			}
			return
		}
		next := make([]int, hostThreads/2)
		for {
			v, ok := q.Dequeue(th)
			if !ok {
				return
			}
			it := v.(*item)
			if it.seq < next[it.producer] {
				t.Errorf("producer %d: item %d dequeued after item %d", it.producer, it.seq, next[it.producer]-1)
			}
			next[it.producer] = it.seq + 1
			consumed.Add(1)
		}
	})
	if consumed.Load() != hostThreads/2*hostOps || q.Len() != 0 {
		t.Errorf("consumed %d items with %d left, want %d and 0", consumed.Load(), q.Len(), hostThreads/2*hostOps)
	}
}

// shardStats stands in for a protocol's Stats: add-only int64 counters.
type shardStats struct{ Pkts, Bytes int64 }

// TestHostShardsSumExact: goroutines on four distinct slots (the last
// among them) and two that share a slot (procs equal modulo
// shardSlots) bump one sharded Stats while they snapshot it; every
// snapshot stays within the totals and the final sum is exact.
func TestHostShardsSumExact(t *testing.T) {
	procs := []int{0, 1, 2, shardSlots - 1, 3, 3 + shardSlots}
	total := int64(len(procs) * hostOps)
	var s Shards[shardStats]
	e := NewBackend(nil, 1, BackendHost)
	for _, p := range procs {
		e.Spawn(fmt.Sprintf("h%d", p), p, func(th *Thread) {
			for i := 0; i < hostOps; i++ {
				c := s.At(th)
				th.Count(&c.Pkts, 1)
				th.Count(&c.Bytes, 3)
				if i%100 == 0 {
					if sum := s.Sum(); sum.Pkts > total || sum.Bytes > 3*total {
						t.Errorf("snapshot %+v beyond the totals %d, %d", sum, total, 3*total)
					}
				}
			}
		})
	}
	e.Run()
	if got, want := s.Sum(), (shardStats{total, 3 * total}); got != want {
		t.Errorf("sum %+v, want %+v", got, want)
	}
}

// TestHostShardsOwnLines: wherever the allocator puts a Shards (every
// offset from a line boundary), no two processors' slots share a line
// unless the processors share a slot, and neither the first nor the
// last slot shares a line with the fields around the Shards; and Sum
// refuses a T it cannot add as int64 words.
func TestHostShardsOwnLines(t *testing.T) {
	type wide struct{ A, B, C, D, E, F, G, H, I, J, K, L, M, N int64 } // tcp.Stats' 14 counters
	line := func(a uintptr) uintptr { return a / cacheLine }
	// check takes the Shards' size, its value size and each proc's slot
	// offset from the Shards' first byte.
	check := func(name string, total, size uintptr, off func(p int) uintptr) {
		if stride := off(1) - off(0); stride < size+cacheLine {
			t.Errorf("%s: slots %d bytes apart, want at least %d + %d", name, stride, size, cacheLine)
		}
		for k := uintptr(0); k < cacheLine; k++ {
			base := cacheLine + k // the Shards starts k bytes past a line boundary
			if first := line(base + off(0)); first == line(base-1) {
				t.Errorf("%s at +%d: slot 0 shares line %d with the field before", name, k, first)
			}
			if last := line(base + off(shardSlots-1) + size - 1); last == line(base+total) {
				t.Errorf("%s at +%d: slot %d shares line %d with the field after", name, k, shardSlots-1, last)
			}
			for p := 0; p+1 < shardSlots; p++ {
				if end, next := line(base+off(p)+size-1), line(base+off(p+1)); end >= next {
					t.Errorf("%s at +%d: proc %d's slot ends on line %d, proc %d's starts on line %d", name, k, p, end, p+1, next)
				}
			}
		}
		if off(shardSlots+5) != off(5) {
			t.Errorf("%s: proc %d does not share proc 5's slot", name, shardSlots+5)
		}
	}
	var narrow Shards[shardStats]
	check("2 counters", unsafe.Sizeof(narrow), unsafe.Sizeof(shardStats{}), func(p int) uintptr {
		return uintptr(unsafe.Pointer(narrow.At(&Thread{Proc: p}))) - uintptr(unsafe.Pointer(&narrow))
	})
	var w Shards[wide]
	check("14 counters", unsafe.Sizeof(w), unsafe.Sizeof(wide{}), func(p int) uintptr {
		return uintptr(unsafe.Pointer(w.At(&Thread{Proc: p}))) - uintptr(unsafe.Pointer(&w))
	})

	refuses := func(name string, sum func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("Sum accepted %s", name)
			}
		}()
		sum()
	}
	refuses("an int32 field", func() { new(Shards[struct{ A int32 }]).Sum() })
	refuses("a pointer field", func() { new(Shards[struct{ P *int64 }]).Sum() })
	refuses("a non-struct", func() { new(Shards[int64]).Sum() })
}

// cellScript runs a seeded random sequence of operations over every
// cell and a lock of the given kind from one thread, and logs each
// result, or the panic it raised.
func cellScript(backend Backend, seed uint64, kind LockKind) []string {
	var (
		log      []string
		refs     [2]RefCount
		ctr      Counter
		stat     int64
		lk       = NewLock(kind, "map")
		q        = NewQueue("script", 3)
		enqueued int
	)
	refs[RefAtomic].Init(RefAtomic, 1)
	refs[RefLocked].Init(RefLocked, 1)
	e := NewBackend(nil, seed, backend)
	e.Spawn("script", 0, func(th *Thread) {
		rng := NewRand(seed)
		step := func(name string, op func() any) {
			defer func() {
				if r := recover(); r != nil {
					log = append(log, fmt.Sprintf("%s: panic %v", name, r))
				}
			}()
			log = append(log, fmt.Sprintf("%s: %v", name, op()))
		}
		for i := 0; i < 400; i++ {
			rc := &refs[rng.Intn(2)]
			switch rng.Intn(9) {
			case 0:
				step("incr", func() any { rc.Incr(th); return rc.Value() })
			case 1, 2: // more decrements than increments: underflow is reached
				step("decr", func() any { return rc.Decr(th) })
			case 3:
				step("add", func() any { return ctr.Add(th, int64(rng.Intn(7))-3) })
			case 4:
				step("count", func() any { th.Count(&stat, int64(rng.Intn(5))); return atomic.LoadInt64(&stat) })
			case 5, 6, 7:
				step("lock", func() any { lk.Acquire(th); lk.Release(th); return lk.Stats().Acquires })
			case 8:
				step("queue", func() any {
					if rng.Intn(2) == 0 {
						enqueued++
						return fmt.Sprint(q.TryEnqueue(th, enqueued), q.Len())
					}
					v, ok := q.TryDequeue(th)
					return fmt.Sprint(v, ok, q.Len())
				})
			}
		}
	})
	e.Run()
	return append(log, fmt.Sprintf("final: %d %d %d %d %d", refs[0].Value(), refs[1].Value(), ctr.Load(), stat, q.Len()))
}

func TestBackendCellsAgree(t *testing.T) {
	for _, kind := range lockKinds {
		for seed := uint64(1); seed <= 5; seed++ {
			simLog, hostLog := cellScript(BackendSim, seed, kind), cellScript(BackendHost, seed, kind)
			if len(simLog) != len(hostLog) {
				t.Fatalf("%v, seed %d: sim log has %d steps, host log %d", kind, seed, len(simLog), len(hostLog))
			}
			for i := range simLog {
				if simLog[i] != hostLog[i] {
					t.Fatalf("%v, seed %d, step %d: sim %q, host %q", kind, seed, i, simLog[i], hostLog[i])
				}
			}
			if want := "decr: panic sim: RefCount underflow"; !slices.Contains(simLog, want) {
				t.Errorf("%v, seed %d: the script never reached %q", kind, seed, want)
			}
		}
	}
}
