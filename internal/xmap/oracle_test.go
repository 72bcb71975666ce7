package xmap

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// oracleMap is a table of heap entries, each holding a copy of its key
// and a pointer to its value, kept as the reference the differential
// tests compare the intrusive Table with: the same hashing, growth,
// 1-behind cache and counters, no lock and no virtual-time charges.
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
	return hash(k) & uint64(len(o.buckets)-1)
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

// chains renders every bucket's chain, in order, as the keys' digest:
// two tables with the same contents but another chain order differ.
func chains[E any](buckets []E, walk func(E, func(Key))) string {
	h := uint64(14695981039346656037)
	for _, e := range buckets {
		walk(e, func(k Key) { h = (h ^ k[0] ^ k[1]<<32) * 1099511628211 })
		h = (h ^ 0xff) * 1099511628211
	}
	return fmt.Sprintf("%x", h)
}

func (o *oracleMap) chains() string {
	return chains(o.buckets, func(e *oracleEntry, f func(Key)) {
		for ; e != nil; e = e.next {
			f(e.key)
		}
	})
}

// table is the surface the differential drives on both implementations.
type table struct {
	bind    func(Key, any) error
	resolve func(Key) (any, bool)
	unbind  func(Key) error
	state   func() string // Len, bucket count, grows, Stats
	chains  func() string // every chain's keys, in order
}

// item is a value that carries its key, as a udp session or a TCB does.
type item struct {
	key  Key
	link Link[*item]
	val  int
}

func (it *item) MapKey() Key           { return it.key }
func (it *item) MapLink() *Link[*item] { return &it.link }

// tableOf drives m: bind binds a script's key and int, and unwrap reads
// the int back from a resolved value.
func tableOf[V Value[V]](th *sim.Thread, m *Table[V], bind func(Key, int) error, unwrap func(V) any) table {
	return table{
		bind: func(k Key, v any) error { return bind(k, v.(int)) },
		resolve: func(k Key) (any, bool) {
			v, ok := m.Resolve(th, k)
			var zero V
			if v == zero {
				return nil, ok
			}
			return unwrap(v), ok
		},
		unbind: func(k Key) error { return m.Unbind(th, k) },
		state: func() string {
			return fmt.Sprintf("n=%d buckets=%d grows=%d %+v", m.Len(th), int(m.mask+1), m.grows, m.Stats())
		},
		chains: func() string { return tableChains(m) },
	}
}

// heads returns m's chain heads in bucket order.
func heads[V Value[V]](m *Table[V]) []V {
	hs := make([]V, int(m.mask+1))
	for b := range hs {
		hs[b] = m.groups[b>>3].heads[b&7]
	}
	return hs
}

func tableChains[V Value[V]](m *Table[V]) string {
	return chains(heads(m), func(e V, f func(Key)) {
		var zero V
		for ; e != zero; e = e.MapLink().next {
			f(e.MapKey())
		}
	})
}

func oracleTable(o *oracleMap) table {
	return table{
		bind: o.Bind, resolve: o.Resolve, unbind: o.Unbind,
		state: func() string {
			return fmt.Sprintf("n=%d buckets=%d grows=%d %+v", o.n, len(o.buckets), o.grows, o.stats)
		},
		chains: o.chains,
	}
}

// script runs a seeded random sequence of operations on tb and returns a
// log of every result and error. One op in sixteen is a walk that
// resolves a run of the script's key space from a random key, wrapping,
// logged as one line (the bound count and an FNV-1a digest of the
// results) with the digest of every chain in order. A walk covers every
// key, or maxWalk keys when the key space is larger (a 12k-key table
// cannot afford a full walk every sixteenth op); the script ends with
// one full walk. Every choice comes from the seed, never from the
// table, so two correct implementations produce the same log.
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
		logf("%s: %d bound, digest %x, chains %s", what, found, h, tb.chains())
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

// valueKinds are the tables the differential drives: New's Pairs of any
// values, and a Table of values that carry their keys, as the udp and
// tcp tables are. Each runs body and checks the table's chains after.
var valueKinds = []struct {
	name string
	run  func(t *testing.T, buckets, maxLoad int, body func(table) []string) []string
}{
	{"any", func(t *testing.T, buckets, maxLoad int, body func(table) []string) (log []string) {
		m := New(buckets, sim.KindMutex, "t")
		m.MaxLoad = maxLoad
		run(t, func(th *sim.Thread) {
			bind := func(k Key, v int) error { return m.Bind(th, k, v) }
			log = body(tableOf(th, &m.Table, bind, func(p *pair[any]) any { return p.val }))
		})
		checkChains(t, &m.Table, nil)
		return log
	}},
	{"pointer", func(t *testing.T, buckets, maxLoad int, body func(table) []string) (log []string) {
		m := NewTable[*item](buckets, sim.KindMutex, "t")
		m.MaxLoad = maxLoad
		var made []*item
		run(t, func(th *sim.Thread) {
			bind := func(k Key, v int) error {
				it := &item{key: k, val: v}
				made = append(made, it)
				return m.Bind(th, it)
			}
			log = body(tableOf(th, m, bind, func(it *item) any { return it.val }))
		})
		checkChains(t, m, made)
		return log
	}},
}

func TestDifferentialAgainstPointerChainedOracle(t *testing.T) {
	for _, c := range []struct {
		name                                 string
		buckets, maxLoad, ops, keys, maxWalk int
	}{
		{"small-growing", 2, 2, 6000, 300, 300},      // several grows, heavy rebinding
		{"fixed-size", 8, 0, 3000, 100, 100},         // no growth: long chains
		{"many-chunks", 64, 8, 30000, 3 * 4096, 512}, // a 12k-key space, walked in part
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
						got := kind.run(t, c.buckets, c.maxLoad, func(tb table) []string {
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

// checkChains asserts the layout invariants of a quiescent table: every
// bound value is on exactly one chain, the one its key hashes to, whose
// tag has the key's bit, an empty chain's tag is zero, n counts the
// values, and each of made that is on none has a zero link.
func checkChains[V Value[V]](t *testing.T, m *Table[V], made []V) {
	t.Helper()
	var zero V
	bound := make(map[V]bool)
	for b, e := range heads(m) {
		tags := m.groups[b>>3].tags[b&7]
		if e == zero && tags != 0 {
			t.Errorf("empty bucket %d has tags %08b", b, tags)
		}
		for ; e != zero; e = e.MapLink().next {
			if bound[e] {
				t.Fatalf("%v is chained twice", e.MapKey())
			}
			bound[e] = true
			h := hash(e.MapKey())
			if h&m.mask != uint64(b) {
				t.Errorf("%v is chained in bucket %d, hashes to %d", e.MapKey(), b, h&m.mask)
			}
			if _, _, tag := m.bucket(h); tags&tag == 0 {
				t.Errorf("%v is chained in bucket %d, whose tags %08b lack its bit", e.MapKey(), b, tags)
			}
		}
	}
	if len(bound) != m.n {
		t.Errorf("%d values chained, n=%d", len(bound), m.n)
	}
	for _, v := range made {
		if !bound[v] && *v.MapLink() != (Link[V]{}) {
			t.Errorf("unbound %v still links to %v", v.MapKey(), v.MapLink().next)
		}
	}
}

// TestUnbindZeroesAndRecyclesTheSlot: after Unbind neither the value's
// link nor the 1-behind cache references anything (a stale link would
// keep the rest of a chain alive, a stale cache a whole slab chunk of
// udp sessions), and the value can be bound again, as a recycled TCB
// is; a value already bound is refused.
func TestUnbindZeroesAndRecyclesTheSlot(t *testing.T) {
	t.Run("pointer", func(t *testing.T) {
		m := NewTable[*item](4, sim.KindMutex, "t")
		var items []*item
		for i := 0; i < 100; i++ {
			items = append(items, &item{key: PortKey(uint16(i), 1), val: i})
		}
		unbindZeroes(t, m, func(th *sim.Thread, i int) error { return m.Bind(th, items[i]) })
	})
	t.Run("any", func(t *testing.T) {
		m := New(4, sim.KindMutex, "t")
		unbindZeroes(t, &m.Table, func(th *sim.Thread, i int) error { return m.Bind(th, PortKey(uint16(i), 1), i) })
	})
}

// unbindZeroes binds values 0..99 through bind, value i under
// PortKey(i, 1), and unbinds and rebinds value 42.
func unbindZeroes[V Value[V]](t *testing.T, m *Table[V], bind func(*sim.Thread, int) error) {
	run(t, func(th *sim.Thread) {
		var zero V
		m.MaxLoad = 0 // chains of 25: an unbound value had a successor
		for i := 0; i < 100; i++ {
			if err := bind(th, i); err != nil {
				t.Fatal(err)
			}
		}
		k := PortKey(42, 1)
		v, _ := m.Resolve(th, k) // the 1-behind cache references the value too
		if *v.MapLink() == (Link[V]{}) {
			t.Fatal("the value is last on its chain: a zero link after Unbind would show nothing")
		}
		if err := m.Unbind(th, k); err != nil {
			t.Fatal(err)
		}
		if l := *v.MapLink(); l != (Link[V]{}) {
			t.Errorf("unbound value still links to %v", l.next)
		}
		if m.cacheVal != zero {
			t.Error("1-behind cache still references the unbound value")
		}
		if _, ok := m.Resolve(th, k); ok {
			t.Error("resolved an unbound key")
		}
		if err := bind(th, 42); err != nil {
			t.Fatalf("binding the unbound key again: %v", err)
		}
		if got, ok := m.Resolve(th, k); !ok || got.MapKey() != k {
			t.Errorf("the rebound key resolves to %v, %v", got, ok)
		}
		if err := bind(th, 42); err != ErrExists {
			t.Errorf("binding a bound key: %v, want %v", err, ErrExists)
		}
		checkChains(t, m, nil)
	})
}
