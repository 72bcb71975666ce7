package xmap

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// oracleMap is the pointer-chained table Map's index-chained layout
// replaced, kept as the reference the differential tests compare with:
// the same hashing, growth, 1-behind cache and counters, one heap entry
// per binding, no lock and no virtual-time charges.
type oracleMap struct {
	maxLoad  int
	buckets  []*oracleEntry
	n, grows int

	cacheKey   Key
	cacheVal   any
	cacheValid bool
	stats      Stats
}

type oracleEntry struct {
	key  Key
	val  any
	next *oracleEntry
}

func newOracle(buckets, maxLoad int) *oracleMap {
	return &oracleMap{maxLoad: maxLoad, buckets: make([]*oracleEntry, buckets)}
}

func (o *oracleMap) hash(k Key) uint64 {
	return (&Map{mask: uint64(len(o.buckets) - 1)}).hash(k)
}

func (o *oracleMap) Bind(k Key, v any) error {
	b := o.hash(k)
	for e := o.buckets[b]; e != nil; e = e.next {
		if e.key == k {
			return ErrExists
		}
	}
	o.buckets[b] = &oracleEntry{key: k, val: v, next: o.buckets[b]}
	o.n++
	o.stats.Binds++
	if o.maxLoad > 0 && o.n > o.maxLoad*len(o.buckets) {
		sz := len(o.buckets)
		for o.n > o.maxLoad*sz {
			sz <<= 1
		}
		old := o.buckets
		o.buckets = make([]*oracleEntry, sz)
		o.grows++
		for _, e := range old {
			for e != nil {
				next := e.next
				b := o.hash(e.key)
				e.next = o.buckets[b]
				o.buckets[b] = e
				e = next
			}
		}
	}
	return nil
}

func (o *oracleMap) Resolve(k Key) (any, bool) {
	o.stats.Resolves++
	if o.cacheValid && o.cacheKey == k {
		o.stats.CacheHits++
		return o.cacheVal, true
	}
	for e := o.buckets[o.hash(k)]; e != nil; e = e.next {
		if e.key == k {
			o.cacheKey, o.cacheVal, o.cacheValid = k, e.val, true
			return e.val, true
		}
	}
	return nil, false
}

func (o *oracleMap) Unbind(k Key) error {
	for pe := &o.buckets[o.hash(k)]; *pe != nil; pe = &(*pe).next {
		if (*pe).key == k {
			*pe = (*pe).next
			o.n--
			o.stats.Unbinds++
			if o.cacheValid && o.cacheKey == k {
				o.cacheValid = false
			}
			return nil
		}
	}
	return ErrNotFound
}

func (o *oracleMap) ForEach(fn func(Key, any) bool) {
	for _, b := range o.buckets {
		for e := b; e != nil; e = e.next {
			if !fn(e.key, e.val) {
				return
			}
		}
	}
}

// table is the surface the differential drives on both implementations.
type table struct {
	bind    func(Key, any) error
	resolve func(Key) (any, bool)
	unbind  func(Key) error
	forEach func(func(Key, any) bool)
	state   func() string // Len, Buckets, Grows, Stats
}

func mapTable(th *sim.Thread, m *Map) table {
	return table{
		bind:    func(k Key, v any) error { return m.Bind(th, k, v) },
		resolve: func(k Key) (any, bool) { return m.Resolve(th, k) },
		unbind:  func(k Key) error { return m.Unbind(th, k) },
		forEach: func(fn func(Key, any) bool) { m.ForEach(th, fn) },
		state: func() string {
			return fmt.Sprintf("n=%d buckets=%d grows=%d %+v", m.Len(th), m.Buckets(), m.Grows(), m.Stats())
		},
	}
}

func oracleTable(o *oracleMap) table {
	return table{
		bind: o.Bind, resolve: o.Resolve, unbind: o.Unbind, forEach: o.ForEach,
		state: func() string {
			return fmt.Sprintf("n=%d buckets=%d grows=%d %+v", o.n, len(o.buckets), o.grows, o.stats)
		},
	}
}

// script runs a seeded random sequence of operations on tb and returns a
// log of every result, error and ForEach visit. Half the ForEach
// callbacks mutate the table as they go: they unbind the entry being
// visited, unbind another key, bind a fresh key (which can grow the
// table under the walk and reuses entries freed earlier), or resolve.
// A walk stops after at most maxVisits entries (a table meant to fill up
// cannot afford full mutating walks, which unbind more than the script
// binds); the script ends with one full walk. Every choice comes from
// the seed, never from the table, so two correct implementations produce
// the same log.
func script(tb table, seed uint64, ops, keys, maxVisits int) []string {
	r := sim.NewRand(seed)
	key := func() Key { return PortKey(uint16(r.Intn(keys)), 7) }
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	for i := 0; i < ops; i++ {
		switch op := r.Intn(16); {
		case op < 6:
			k := key()
			logf("bind %v: %v", k, tb.bind(k, i))
		case op < 10:
			k := key()
			v, ok := tb.resolve(k)
			logf("resolve %v: %v %v", k, v, ok)
		case op < 15:
			k := key()
			logf("unbind %v: %v", k, tb.unbind(k))
		default:
			mutate, stopAfter, visit := r.Intn(2) == 0, r.Intn(maxVisits), 0
			tb.forEach(func(k Key, v any) bool {
				logf("visit %v %v", k, v)
				if mutate {
					switch r.Intn(6) {
					case 0:
						logf(" unbind visited: %v", tb.unbind(k))
					case 1:
						k2 := key()
						logf(" unbind %v: %v", k2, tb.unbind(k2))
					case 2:
						k2 := key()
						logf(" bind %v: %v", k2, tb.bind(k2, -i))
					case 3:
						logf(" unbind visited: %v", tb.unbind(k))
						k2 := key()
						logf(" bind %v: %v", k2, tb.bind(k2, -i))
					case 4:
						k2 := key()
						v2, ok := tb.resolve(k2)
						logf(" resolve %v: %v %v", k2, v2, ok)
					}
				}
				visit++
				return visit <= stopAfter
			})
		}
		logf("state %s", tb.state())
	}
	tb.forEach(func(k Key, v any) bool {
		logf("final visit %v %v", k, v)
		return true
	})
	return log
}

func TestDifferentialAgainstPointerChainedOracle(t *testing.T) {
	for _, c := range []struct {
		name                                   string
		buckets, maxLoad, ops, keys, maxVisits int
	}{
		{"small-growing", 2, 2, 6000, 300, 1200},    // several grows, heavy entry reuse
		{"fixed-size", 8, 0, 3000, 100, 400},        // no growth: long chains
		{"many-chunks", 64, 8, 30000, 3 * 4096, 40}, // entry storage spans chunks
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				o := newOracle(c.buckets, c.maxLoad)
				want := script(oracleTable(o), seed, c.ops, c.keys, c.maxVisits)
				var got []string
				var m *Map
				run(t, func(th *sim.Thread) {
					m = New(c.buckets, sim.KindMutex, "t")
					m.MaxLoad = c.maxLoad
					got = script(mapTable(th, m), seed, c.ops, c.keys, c.maxVisits)
				})
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						t.Fatalf("log line %d of %d:\n map:    %s\n oracle: %s", i, len(want), at(got, i), want[i])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("map logged %d lines, oracle %d", len(got), len(want))
				}
				if c.maxLoad > 0 && o.grows < 3 {
					t.Errorf("script crossed only %d grows", o.grows)
				}
				if c.name == "many-chunks" && len(m.chunks) < 2 {
					t.Errorf("entry storage is %d chunk", len(m.chunks))
				}
				checkStorage(t, m)
			})
		}
	}
}

func at(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<none>"
}

// checkStorage asserts the layout invariants of a quiescent map: every
// entry slot is either on exactly one chain or zeroed on the free list,
// nothing waits in limbo, and only the last chunk is short.
func checkStorage(t *testing.T, m *Map) {
	t.Helper()
	slots := 0
	for i, c := range m.chunks {
		if i < len(m.chunks)-1 && len(c) != chunkSize {
			t.Errorf("chunk %d of %d holds %d entries, want %d", i, len(m.chunks), len(c), chunkSize)
		}
		slots += len(c)
	}
	if m.iter != 0 || len(m.limbo) != 0 {
		t.Errorf("quiescent map has iter=%d, %d entries in limbo", m.iter, len(m.limbo))
	}
	seen := make(map[ref]bool)
	bound := 0
	for _, r := range m.buckets {
		for ; r != 0; r = m.at(r).next {
			if seen[r] {
				t.Fatalf("entry %d is chained twice", r)
			}
			seen[r] = true
			bound++
		}
	}
	free := 0
	for r := m.free; r != 0; r = m.at(r).next {
		if seen[r] {
			t.Fatalf("entry %d is both bound and free (or free twice)", r)
		}
		seen[r] = true
		if e := m.at(r); e.key != (Key{}) || e.val != nil {
			t.Errorf("free entry %d still holds %v -> %v", r, e.key, e.val)
		}
		free++
	}
	if bound != m.n || bound+free != slots {
		t.Errorf("%d bound (n=%d) + %d free != %d slots", bound, m.n, free, slots)
	}
}

func TestUnbindZeroesAndRecyclesTheSlot(t *testing.T) {
	run(t, func(th *sim.Thread) {
		m := New(16, sim.KindMutex, "t")
		val := new(int)
		for i := 0; i < 100; i++ {
			m.Bind(th, PortKey(uint16(i), 1), val)
		}
		k := PortKey(42, 1)
		m.Resolve(th, k) // the 1-behind cache references the value too
		r := m.buckets[m.hash(k)]
		for m.at(r).key != k {
			r = m.at(r).next
		}
		if err := m.Unbind(th, k); err != nil {
			t.Fatal(err)
		}
		if e := *m.at(r); e != (entry{}) {
			t.Errorf("unbound slot still holds %+v", e)
		}
		if m.cacheVal != nil {
			t.Error("1-behind cache still references the unbound value")
		}
		for i := 0; i < 100; i += 2 {
			m.Unbind(th, PortKey(uint16(i), 1))
		}
		for i := 0; i < 100; i += 2 {
			m.Bind(th, PortKey(uint16(1000+i), 1), val)
		}
		if n := len(m.chunks[0]); len(m.chunks) != 1 || n != 100 {
			t.Errorf("100 live bindings occupy %d chunks, %d slots in the first: freed slots were not reused", len(m.chunks), n)
		}
		checkStorage(t, m)
	})
}

func TestSmallMapStorageStartsSmall(t *testing.T) {
	run(t, func(th *sim.Thread) {
		m := New(16, sim.KindMutex, "t")
		var caps []int
		for i := 0; i < 9; i++ {
			m.Bind(th, ProtoKey(uint32(i)), i)
			caps = append(caps, cap(m.chunks[0]))
		}
		if want := "[1 2 4 4 8 8 8 8 16]"; fmt.Sprint(caps) != want {
			t.Errorf("first chunk capacities %v, want %s", caps, want)
		}
		if &m.chunks[0] != &m.chunk0[0] {
			t.Error("a one-chunk map allocated its chunk table")
		}
	})
}

// A Bind inside a ForEach callback can move the first entry chunk; the
// walk must read the visited entry's successor from where the entry
// lives now, or it misses an Unbind made after the move.
func TestForEachReadsNextAfterTheCallback(t *testing.T) {
	walk := func(tb table) []string {
		for i := 0; i < 4; i++ { // one bucket: the chain is 3, 2, 1, 0 and the first chunk is full
			tb.bind(ProtoKey(uint32(i)), i)
		}
		var log []string
		tb.forEach(func(k Key, v any) bool {
			log = append(log, fmt.Sprint(v))
			if v == 3 {
				tb.bind(ProtoKey(4), 4) // moves the chunk
				tb.unbind(ProtoKey(2))  // 3's successor is now 1
			}
			return true
		})
		return log
	}
	want := walk(oracleTable(newOracle(1, 0)))
	run(t, func(th *sim.Thread) {
		m := New(1, sim.KindMutex, "t")
		m.MaxLoad = 0
		if got := walk(mapTable(th, m)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("visited %v, oracle %v", got, want)
		}
	})
}
