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
// Layout: a bucket is a uint32 holding 1 + the index of the chain's
// first entry (0: empty), an entry names its successor the same way, and
// entries live in chunks in bind order, Unbind feeding a free list. By
// index, not pointer, so that a million-binding table is one allocation
// per chunk and its bucket array pointer-free and half the size. A
// Table[V] stores its values as V, so an entry whose value is a pointer
// is 24 B (an any took 16 of 32); its embedded Map is the part that does
// not depend on V, which protocols expose for statistics. The contract
// is that of the pointer-chained table this replaced, which the tests
// keep as oracleMap: newest-first within a bucket, the same results,
// cache and counters.
// (Not an internal/slab: that hands out pointers and never takes one
// back; a link here must be 4 bytes and Unbind must recycle.)
package xmap

import (
	"errors"

	"repro/internal/sim"
)

// Key is a fixed-size binary external identifier. Demux keys (addresses,
// ports, protocol numbers) are packed into 96 bits: all of k[0] and the
// low 32 bits of k[1], which is all a map stores (Bind refuses a wider
// k[1] with ErrKeyRange).
type Key [2]uint64

// Errors returned by map operations.
var (
	ErrExists   = errors.New("xmap: key already bound")
	ErrNotFound = errors.New("xmap: key not bound")
	ErrKeyRange = errors.New("xmap: key's second word exceeds 32 bits")
)

// ref names an entry: 1 + its index, 0 for none.
type ref = uint32

// entry is one binding: its key's 96 bits, its successor and its value,
// 24 B for a pointer value.
type entry[V any] struct {
	k0   uint64
	k1   uint32
	next ref
	val  V
}

func (e *entry[V]) key() Key { return Key{e.k0, uint64(e.k1)} }

// Entry i is chunks[i>>chunkShift][i&chunkMask]. Every chunk is
// chunkSize long except the last; the first grows 1, 2, 4, ... by copy
// (nothing holds an entry pointer across a Bind), so a map with one
// binding costs what one heap entry did.
const (
	chunkShift = 12
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

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
// its values: the lock, buckets, counters, the 1-behind cache's key and
// the free list. A Table embeds one.
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

	buckets []ref
	mask    uint64
	n       int
	grows   int
	free    ref // freed entries, chained through next

	stats sim.Shards[Stats]
}

// Table is one chained-bucket hash table whose values are Vs.
type Table[V any] struct {
	// cacheVal first, so that it shares a line with the fields of Map a
	// cache-hit Resolve reads: on the host backend that line is read by
	// every processor.
	cacheVal V
	Map

	// Entry storage, after the fields a cache-hit Resolve touches.
	chunks [][]entry[V]
	// chunk0 backs chunks until a second chunk is needed, so a small
	// map makes no allocation for the chunk table.
	chunk0 [1][]entry[V]
}

// NewTable creates a table with the given number of buckets (rounded up
// to a power of two) protected by a lock of the given kind.
func NewTable[V any](buckets int, kind sim.LockKind, name string) *Table[V] {
	sz := 1
	for sz < buckets {
		sz <<= 1
	}
	m := &Table[V]{Map: Map{
		Locking: true,
		MaxLoad: 8,
		lock:    sim.NewLock(kind, "map:"+name),
		buckets: make([]ref, sz),
		mask:    uint64(sz - 1),
	}}
	m.chunks = m.chunk0[:]
	return m
}

// New creates a table of any values (see NewTable).
func New(buckets int, kind sim.LockKind, name string) *Table[any] {
	return NewTable[any](buckets, kind, name)
}

func (m *Table[V]) at(r ref) *entry[V] {
	i := r - 1
	return &m.chunks[i>>chunkShift][i&chunkMask]
}

// newEntry returns an unused entry: the last freed one, else the next
// slot of the last chunk.
func (m *Table[V]) newEntry() ref {
	if r := m.free; r != 0 {
		m.free = m.at(r).next
		return r
	}
	last := len(m.chunks) - 1
	if len(m.chunks[last]) == chunkSize {
		m.chunks = append(m.chunks, nil)
		last++
	}
	c := m.chunks[last]
	if len(c) == cap(c) {
		size := chunkSize
		if last == 0 {
			size = min(max(2*cap(c), 1), chunkSize)
		}
		c = append(make([]entry[V], 0, size), c...)
	}
	c = c[:len(c)+1]
	m.chunks[last] = c
	return ref(last<<chunkShift + len(c))
}

// freeEntry zeroes an unbound entry, so the map no longer references
// its value, and puts it on the free list.
func (m *Table[V]) freeEntry(r ref) {
	*m.at(r) = entry[V]{next: m.free}
	m.free = r
}

func (m *Map) hash(k Key) uint64 {
	h := k[0]*0x9e3779b97f4a7c15 ^ k[1]*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return h & m.mask
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

// Bind inserts a key → value binding. A key whose k[1] does not fit in
// 32 bits is refused (ErrKeyRange) before any charge, so no two keys
// alias.
func (m *Table[V]) Bind(t *sim.Thread, k Key, v V) error {
	if k[1] > 1<<32-1 {
		return ErrKeyRange
	}
	m.acquire(t)
	defer m.release(t)
	t.ChargeRand(t.Engine().C.Stack.MapHash)
	b := m.hash(k)
	for r := m.buckets[b]; r != 0; {
		e := m.at(r)
		if e.key() == k {
			return ErrExists
		}
		r = e.next
	}
	r := m.newEntry()
	*m.at(r) = entry[V]{k0: k[0], k1: uint32(k[1]), next: m.buckets[b], val: v}
	m.buckets[b] = r
	m.n++
	t.Count(&m.stats.At(t).Binds, 1)
	if m.MaxLoad > 0 && m.n > m.MaxLoad*len(m.buckets) {
		m.grow()
	}
	return nil
}

// grow doubles the bucket array until the average chain length is back
// under MaxLoad, rehashing every entry. Called with the map lock held;
// purely host-side (no virtual charge).
func (m *Table[V]) grow() {
	sz := len(m.buckets)
	for m.n > m.MaxLoad*sz {
		sz <<= 1
	}
	old := m.buckets
	m.buckets = make([]ref, sz)
	m.mask = uint64(sz - 1)
	m.grows++
	for _, r := range old {
		for r != 0 {
			e := m.at(r)
			next := e.next
			b := m.hash(e.key())
			e.next = m.buckets[b]
			m.buckets[b] = r
			r = next
		}
	}
}

// Buckets returns the current bucket-array size (tests, reports).
func (m *Map) Buckets() int { return len(m.buckets) }

// Grows returns how many times the bucket array has grown.
func (m *Map) Grows() int { return m.grows }

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
	for r := m.buckets[m.hash(k)]; r != 0; {
		e := m.at(r)
		if e.key() == k {
			m.cacheKey, m.cacheVal, m.cacheValid = k, e.val, true
			return e.val, true
		}
		r = e.next
	}
	var zero V
	return zero, false
}

// Unbind removes a binding.
func (m *Table[V]) Unbind(t *sim.Thread, k Key) error {
	m.acquire(t)
	defer m.release(t)
	t.ChargeRand(t.Engine().C.Stack.MapHash)
	b := m.hash(k)
	for pr := &m.buckets[b]; *pr != 0; {
		r := *pr
		e := m.at(r)
		if e.key() == k {
			*pr = e.next
			m.n--
			t.Count(&m.stats.At(t).Unbinds, 1)
			if m.cacheValid && m.cacheKey == k {
				var zero V
				m.cacheVal, m.cacheValid = zero, false
			}
			m.freeEntry(r)
			return nil
		}
		pr = &e.next
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
