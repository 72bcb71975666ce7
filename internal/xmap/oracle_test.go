package xmap

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// oracleMap is the pointer-chained table Table's index-chained layout
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

// table is the surface the differential drives on both implementations.
type table struct {
	bind    func(Key, any) error
	resolve func(Key) (any, bool)
	unbind  func(Key) error
	state   func() string // Len, Buckets, Grows, Stats
}

// mapTable drives m, which stores the script's int values as Vs: wrap
// makes one, unwrap reads one back.
func mapTable[V any](th *sim.Thread, m *Table[V], wrap func(int) V, unwrap func(V) any) table {
	return table{
		bind: func(k Key, v any) error { return m.Bind(th, k, wrap(v.(int))) },
		resolve: func(k Key) (any, bool) {
			v, ok := m.Resolve(th, k)
			return unwrap(v), ok
		},
		unbind: func(k Key) error { return m.Unbind(th, k) },
		state: func() string {
			return fmt.Sprintf("n=%d buckets=%d grows=%d %+v", m.Len(th), m.Buckets(), m.Grows(), m.Stats())
		},
	}
}

func oracleTable(o *oracleMap) table {
	return table{
		bind: o.Bind, resolve: o.Resolve, unbind: o.Unbind,
		state: func() string {
			return fmt.Sprintf("n=%d buckets=%d grows=%d %+v", o.n, len(o.buckets), o.grows, o.stats)
		},
	}
}

// script runs a seeded random sequence of operations on tb and returns a
// log of every result and error. One op in sixteen is a walk that
// resolves a run of the script's key space from a random key, wrapping,
// logged as one line (the bound count and an FNV-1a digest of the
// results). A walk covers every key, or maxWalk keys when the key space
// is larger (a 12k-key table cannot afford a full walk every sixteenth
// op); the script ends with one full walk. Every choice comes from the
// seed, never from the table, so two correct implementations produce
// the same log.
func script(tb table, seed uint64, ops, keys, maxWalk int) []string {
	r := sim.NewRand(seed)
	key := func() Key { return PortKey(uint16(r.Intn(keys)), 7) }
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	walk := func(what string, start, n int) {
		found, h := 0, uint64(14695981039346656037)
		for i := start; i < start+n; i++ {
			v, ok := tb.resolve(PortKey(uint16(i%keys), 7))
			x := uint64(0) // unbound
			if ok {
				found++
				x = uint64(v.(int)) + 1
			}
			h = (h ^ x) * 1099511628211
		}
		logf("%s: %d bound, digest %x", what, found, h)
	}
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
			walk("walk", r.Intn(keys), min(keys, maxWalk))
		}
		logf("state %s", tb.state())
	}
	walk("final walk", 0, keys)
	return log
}

// scriptOn runs body on m from an engine thread, m storing the script's
// values through wrap and unwrap, checks m's storage and returns the
// log and the number of entry chunks.
func scriptOn[V comparable](t *testing.T, m *Table[V], wrap func(int) V, unwrap func(V) any, body func(table) []string) (log []string, chunks int) {
	t.Helper()
	run(t, func(th *sim.Thread) { log = body(mapTable(th, m, wrap, unwrap)) })
	checkStorage(t, m)
	return log, len(m.chunks)
}

// valueKinds are the instantiations the differential drives: New's any,
// and a pointer, as the udp and tcp tables hold.
var valueKinds = []struct {
	name string
	run  func(t *testing.T, buckets, maxLoad int, body func(table) []string) ([]string, int)
}{
	{"any", func(t *testing.T, buckets, maxLoad int, body func(table) []string) ([]string, int) {
		m := New(buckets, sim.KindMutex, "t")
		m.MaxLoad = maxLoad
		return scriptOn(t, m, func(i int) any { return i }, func(v any) any { return v }, body)
	}},
	{"pointer", func(t *testing.T, buckets, maxLoad int, body func(table) []string) ([]string, int) {
		m := NewTable[*int](buckets, sim.KindMutex, "t")
		m.MaxLoad = maxLoad
		unwrap := func(p *int) any {
			if p == nil {
				return nil
			}
			return *p
		}
		return scriptOn(t, m, func(i int) *int { return &i }, unwrap, body)
	}},
}

func TestDifferentialAgainstPointerChainedOracle(t *testing.T) {
	for _, c := range []struct {
		name                                 string
		buckets, maxLoad, ops, keys, maxWalk int
	}{
		{"small-growing", 2, 2, 6000, 300, 300},      // several grows, heavy entry reuse
		{"fixed-size", 8, 0, 3000, 100, 100},         // no growth: long chains
		{"many-chunks", 64, 8, 30000, 3 * 4096, 512}, // entry storage spans chunks
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				o := newOracle(c.buckets, c.maxLoad)
				want := script(oracleTable(o), seed, c.ops, c.keys, c.maxWalk)
				if c.maxLoad > 0 && o.grows < 3 {
					t.Errorf("script crossed only %d grows", o.grows)
				}
				for _, kind := range valueKinds {
					t.Run(kind.name, func(t *testing.T) {
						got, chunks := kind.run(t, c.buckets, c.maxLoad, func(tb table) []string {
							return script(tb, seed, c.ops, c.keys, c.maxWalk)
						})
						for i := range want {
							if i >= len(got) || got[i] != want[i] {
								t.Fatalf("log line %d of %d:\n map:    %s\n oracle: %s", i, len(want), at(got, i), want[i])
							}
						}
						if len(got) != len(want) {
							t.Fatalf("map logged %d lines, oracle %d", len(got), len(want))
						}
						if c.name == "many-chunks" && chunks < 2 {
							t.Errorf("entry storage is %d chunk", chunks)
						}
					})
				}
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
// and only the last chunk is short.
func checkStorage[V comparable](t *testing.T, m *Table[V]) {
	t.Helper()
	slots := 0
	for i, c := range m.chunks {
		if i < len(m.chunks)-1 && len(c) != chunkSize {
			t.Errorf("chunk %d of %d holds %d entries, want %d", i, len(m.chunks), len(c), chunkSize)
		}
		slots += len(c)
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
		if e := m.at(r); *e != (entry[V]{next: e.next}) {
			t.Errorf("free entry %d still holds %v -> %v", r, e.key(), e.val)
		}
		free++
	}
	if bound != m.n || bound+free != slots {
		t.Errorf("%d bound (n=%d) + %d free != %d slots", bound, m.n, free, slots)
	}
}

// TestUnbindZeroesAndRecyclesTheSlot: after Unbind neither the freed
// slot nor the 1-behind cache holds the value (a stale *udp.Session
// would keep its whole slab chunk alive), and Bind reuses the slot.
func TestUnbindZeroesAndRecyclesTheSlot(t *testing.T) {
	val := new(int)
	t.Run("pointer", func(t *testing.T) { unbindZeroes(t, NewTable[*int](16, sim.KindMutex, "t"), val) })
	t.Run("any", func(t *testing.T) { unbindZeroes(t, New(16, sim.KindMutex, "t"), any(val)) })
}

func unbindZeroes[V comparable](t *testing.T, m *Table[V], val V) {
	run(t, func(th *sim.Thread) {
		for i := 0; i < 100; i++ {
			m.Bind(th, PortKey(uint16(i), 1), val)
		}
		k := PortKey(42, 1)
		m.Resolve(th, k) // the 1-behind cache references the value too
		r := m.buckets[m.hash(k)]
		for m.at(r).key() != k {
			r = m.at(r).next
		}
		if err := m.Unbind(th, k); err != nil {
			t.Fatal(err)
		}
		if e := *m.at(r); e != (entry[V]{}) {
			t.Errorf("unbound slot still holds %+v", e)
		}
		var zero V
		if m.cacheVal != zero {
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
