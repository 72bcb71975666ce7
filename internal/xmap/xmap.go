// Package xmap implements the x-kernel map manager: a mapping from an
// external identifier (e.g. a TCP port pair) to an internal identifier
// (e.g. a protocol control block), built on chained-bucket hash tables
// with a 1-behind cache (Section 2.1 of the paper).
//
// Maps are used for demultiplexing. They are locked for insert, lookup
// and remove. The x-kernel's lock is a counting (recursive) one, since
// its map iterator may call back into the map on the same thread; no
// protocol here iterates a map, so there is no iterator and the lock is
// a plain sim.Lock, which charges what a counting lock that never
// recurses does.
//
// Layout: the table is intrusive. A value already holds the identifier
// it is bound under (a udp session its ports, a TCB its participants),
// so it carries its own chain link and the table stores no entry and no
// copy of the key: a connection is one object. Values whose type
// carries no key go through Pairs, one node per binding. Table embeds
// Map, the part that does not depend on the value type, which protocols
// expose for statistics. The tests keep an entry-chained oracleMap:
// newest-first within a bucket, the same results, cache and counters.
package xmap

import (
	"errors"

	"repro/internal/sim"
)

// Key is a fixed-size binary external identifier. Demux keys (addresses,
// ports, protocol numbers) are packed into its 128 bits.
type Key [2]uint64

// Errors returned by map operations.
var (
	ErrExists   = errors.New("xmap: key already bound")
	ErrNotFound = errors.New("xmap: key not bound")
)

// Link is the successor pointer a value embeds to chain itself.
type Link[V any] struct{ next V }

// Value is what a Table chains: a pointer to a struct that returns the
// key it is bound under and its embedded Link. MapKey must not change
// while the value is bound: the table finds it, rehashes it and unbinds
// it by that key.
type Value[V any] interface {
	comparable
	MapKey() Key
	MapLink() *Link[V]
}

// Stats counts map activity. The map keeps one Stats per processor
// (sim.Shards), bumped with Thread.Count under the map lock and summed
// by Stats() without it. Per processor, so that the lock's holder
// dirties only its own counter line: a cache-hit Resolve on the host
// backend then moves no line but the lock's and the cache's.
type Stats struct {
	Resolves  int64
	CacheHits int64
	Binds     int64
	Unbinds   int64
}

// Map is the part of a chained-bucket hash table that does not depend on
// its values: the lock, the bucket count, counters and the 1-behind
// cache's key. A Table embeds one.
type Map struct {
	// Locking can be disabled to reproduce the Section 3.1 experiment
	// ("running the test without locking the maps yielded a small,
	// approximately 10 percent, improvement").
	Locking bool

	// NoCache disables the 1-behind cache (ablation).
	NoCache bool

	// MaxLoad is the average chain length beyond which Bind doubles the
	// bucket array (0 disables growth). Rehashing is host-side work
	// only: the model charges the same flat hash cost either way (the
	// x-kernel's map paper assumes short chains), so growth keeps the
	// host-time chain walks O(1) at 100k+ bindings without perturbing
	// virtual time.
	MaxLoad int

	lock *sim.Lock

	// 1-behind cache: the key of the most recently resolved binding
	// (its value is the Table's cacheVal, just before this Map).
	cacheKey   Key
	cacheValid bool

	mask  uint64
	n     int
	grows int

	stats sim.Shards[Stats]
}

// Table is one chained-bucket hash table whose values chain themselves.
type Table[V Value[V]] struct {
	// cacheVal first, so that it shares a line with the fields of Map a
	// cache-hit Resolve reads: on the host backend that line is read by
	// every processor.
	cacheVal V
	Map

	// groups holds the buckets, eight to a group, after the fields a
	// cache-hit Resolve touches.
	groups []group[V]
}

// group is eight buckets: each chain's newest value and a tag byte with
// the tag bit of every key on the chain set (until the chain empties,
// after an Unbind too). A clear bit spares Bind a walk that costs a
// cache miss per chained value at a million bindings.
type group[V any] struct {
	tags  [8]uint8
	heads [8]V
}

// NewTable creates a table with the given number of buckets (rounded up
// to a power of two) protected by a lock of the given kind.
func NewTable[V Value[V]](buckets int, kind sim.LockKind, name string) *Table[V] {
	m := new(Table[V])
	m.init(buckets, kind, name)
	return m
}

func (m *Table[V]) init(buckets int, kind sim.LockKind, name string) {
	sz := 1
	for sz < buckets {
		sz <<= 1
	}
	m.Locking, m.MaxLoad = true, 8
	m.lock = sim.NewLock(kind, "map:"+name)
	m.mask = uint64(sz - 1)
	m.groups = make([]group[V], (sz+7)/8)
}

func hash(k Key) uint64 {
	h := k[0]*0x9e3779b97f4a7c15 ^ k[1]*0xbf58476d1ce4e5b9
	return h ^ h>>29
}

// bucket returns the chain head for hash h, its tag byte and the key's
// tag bit, picked by h's top three bits, which no bucket index reaches.
func (m *Table[V]) bucket(h uint64) (head *V, tags *uint8, tag uint8) {
	b := h & m.mask
	g := &m.groups[b>>3]
	return &g.heads[b&7], &g.tags[b&7], 1 << (h >> 61)
}

func (m *Map) acquire(t *sim.Thread) {
	if m.Locking {
		m.lock.Acquire(t)
	} else {
		t.Sync() // still serialize in virtual time, just without lock cost
	}
}

func (m *Map) release(t *sim.Thread) {
	if m.Locking {
		m.lock.Release(t)
	}
}

// Bind binds v under its own key. A value already bound, or another
// under the same key, is ErrExists.
func (m *Table[V]) Bind(t *sim.Thread, v V) error {
	m.acquire(t)
	defer m.release(t)
	t.ChargeRand(t.Engine().C.Stack.MapHash)
	k := v.MapKey()
	head, tags, tag := m.bucket(hash(k))
	var zero V
	if *tags&tag != 0 {
		for e := *head; e != zero; e = e.MapLink().next {
			if e.MapKey() == k {
				return ErrExists
			}
		}
	}
	v.MapLink().next = *head
	*head, *tags = v, *tags|tag
	m.n++
	t.Count(&m.stats.At(t).Binds, 1)
	if m.MaxLoad > 0 && m.n > m.MaxLoad*int(m.mask+1) {
		m.grow()
	}
	return nil
}

// grow doubles the bucket count until the average chain length is back
// under MaxLoad, rehashing every value. Called with the map lock held;
// purely host-side (no virtual charge).
func (m *Table[V]) grow() {
	sz := int(m.mask + 1)
	for m.n > m.MaxLoad*sz {
		sz <<= 1
	}
	old := m.groups
	m.groups = make([]group[V], (sz+7)/8)
	m.mask = uint64(sz - 1)
	m.grows++
	var zero V
	for i := range old {
		for _, e := range old[i].heads {
			for e != zero {
				l := e.MapLink()
				next := l.next
				head, tags, tag := m.bucket(hash(e.MapKey()))
				l.next, *head, *tags = *head, e, *tags|tag
				e = next
			}
		}
	}
}

// Resolve looks up a binding, consulting the 1-behind cache first.
func (m *Table[V]) Resolve(t *sim.Thread, k Key) (V, bool) {
	m.acquire(t)
	defer m.release(t)
	t.Count(&m.stats.At(t).Resolves, 1)
	st := &t.Engine().C.Stack
	if !m.NoCache && m.cacheValid && m.cacheKey == k {
		t.Count(&m.stats.At(t).CacheHits, 1)
		t.ChargeRand(st.MapCacheHit)
		return m.cacheVal, true
	}
	t.ChargeRand(st.MapHash)
	head, _, _ := m.bucket(hash(k))
	var zero V
	for e := *head; e != zero; e = e.MapLink().next {
		if e.MapKey() == k {
			m.cacheKey, m.cacheVal, m.cacheValid = k, e, true
			return e, true
		}
	}
	return zero, false
}

// Unbind removes the binding under k and zeroes the removed value's
// link, so neither the table nor the value references the other.
func (m *Table[V]) Unbind(t *sim.Thread, k Key) error {
	m.acquire(t)
	defer m.release(t)
	t.ChargeRand(t.Engine().C.Stack.MapHash)
	head, tags, _ := m.bucket(hash(k))
	var zero V
	for pe := head; *pe != zero; {
		e := *pe
		l := e.MapLink()
		if e.MapKey() == k {
			*pe, *l = l.next, Link[V]{}
			if *head == zero {
				*tags = 0
			}
			m.n--
			t.Count(&m.stats.At(t).Unbinds, 1)
			if m.cacheValid && m.cacheKey == k {
				m.cacheVal, m.cacheValid = zero, false
			}
			return nil
		}
		pe = &l.next
	}
	return ErrNotFound
}

// Len returns the number of bindings.
func (m *Map) Len(t *sim.Thread) int {
	m.acquire(t)
	defer m.release(t)
	return m.n
}

// Stats returns the counters summed over processors (atomic-load
// snapshot).
func (m *Map) Stats() Stats { return m.stats.Sum() }

// LockStats exposes the map lock's contention statistics.
func (m *Map) LockStats() sim.LockStats { return m.lock.Stats() }

// pair is one Pairs binding: the key, the link and the value.
type pair[U any] struct {
	key  Key
	link Link[*pair[U]]
	val  U
}

func (p *pair[U]) MapKey() Key              { return p.key }
func (p *pair[U]) MapLink() *Link[*pair[U]] { return &p.link }

// Pairs binds explicit keys to values that carry none (ip's and fddi's
// protocol numbers to the layer above): a Table of one node per binding.
type Pairs[U any] struct {
	Table[*pair[U]]
}

// NewPairs creates a Pairs table (see NewTable).
func NewPairs[U any](buckets int, kind sim.LockKind, name string) *Pairs[U] {
	m := new(Pairs[U])
	m.init(buckets, kind, name)
	return m
}

// New creates a table of any values (see NewTable).
func New(buckets int, kind sim.LockKind, name string) *Pairs[any] {
	return NewPairs[any](buckets, kind, name)
}

// Bind inserts a key → value binding.
func (m *Pairs[U]) Bind(t *sim.Thread, k Key, v U) error {
	return m.Table.Bind(t, &pair[U]{key: k, val: v})
}

// Resolve looks up a binding, consulting the 1-behind cache first.
func (m *Pairs[U]) Resolve(t *sim.Thread, k Key) (v U, ok bool) {
	if p, ok := m.Table.Resolve(t, k); ok {
		return p.val, true
	}
	return v, false
}

// PortKey packs a local/remote port pair demux key.
func PortKey(localPort, remotePort uint16) Key {
	return Key{uint64(localPort)<<16 | uint64(remotePort), 0}
}

// AddrKey packs a full 4-tuple demux key.
func AddrKey(localIP, remoteIP [4]byte, localPort, remotePort uint16) Key {
	var k Key
	k[0] = uint64(localIP[0])<<56 | uint64(localIP[1])<<48 |
		uint64(localIP[2])<<40 | uint64(localIP[3])<<32 |
		uint64(remoteIP[0])<<24 | uint64(remoteIP[1])<<16 |
		uint64(remoteIP[2])<<8 | uint64(remoteIP[3])
	k[1] = uint64(localPort)<<16 | uint64(remotePort)
	return k
}

// ProtoKey packs a single protocol-number demux key.
func ProtoKey(p uint32) Key { return Key{uint64(p), 1} }
