// Package xmap implements the x-kernel map manager: a mapping from an
// external identifier (e.g. a TCP port pair) to an internal identifier
// (e.g. a protocol control block), built on chained-bucket hash tables
// with a 1-behind cache (Section 2.1 of the paper).
//
// Maps are primarily used for demultiplexing. They are locked for
// insert, lookup and remove; because the iterator ForEach can call back
// into map operations on the same thread, the lock is a counting
// (recursive) lock.
package xmap

import (
	"errors"
	"sync/atomic"

	"repro/internal/sim"
)

// Key is a fixed-size binary external identifier. Demux keys (addresses,
// ports, protocol numbers) are packed into two words.
type Key [2]uint64

// Errors returned by map operations.
var (
	ErrExists   = errors.New("xmap: key already bound")
	ErrNotFound = errors.New("xmap: key not bound")
)

type entry struct {
	key  Key
	val  any
	next *entry
}

// Stats counts map activity (Thread.Count: callers on concurrent host
// threads bump them under the map lock, but Stats() snapshots without
// it).
type Stats struct {
	Resolves  int64
	CacheHits int64
	Binds     int64
	Unbinds   int64
}

// Map is one chained-bucket hash table.
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
	// virtual time. Growth does reorder ForEach iteration, so maps that
	// are scanned (the TCP demux map under scan-mode timers) should be
	// pre-sized instead when byte-compatibility with a fixed-size run
	// matters.
	MaxLoad int

	lock    *sim.CountingLock
	buckets []*entry
	mask    uint64
	n       int
	grows   int

	// 1-behind cache: the most recently resolved binding.
	cacheKey   Key
	cacheVal   any
	cacheValid bool

	stats Stats
}

// New creates a map with the given number of buckets (rounded up to a
// power of two) protected by a counting lock of the given kind.
func New(buckets int, kind sim.LockKind, name string) *Map {
	sz := 1
	for sz < buckets {
		sz <<= 1
	}
	return &Map{
		Locking: true,
		MaxLoad: 8,
		lock:    sim.NewCountingLock(kind, "map:"+name),
		buckets: make([]*entry, sz),
		mask:    uint64(sz - 1),
	}
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

// Bind inserts a key → value binding.
func (m *Map) Bind(t *sim.Thread, k Key, v any) error {
	m.acquire(t)
	defer m.release(t)
	t.ChargeRand(t.Engine().C.Stack.MapHash)
	b := m.hash(k)
	for e := m.buckets[b]; e != nil; e = e.next {
		if e.key == k {
			return ErrExists
		}
	}
	m.buckets[b] = &entry{key: k, val: v, next: m.buckets[b]}
	m.n++
	t.Count(&m.stats.Binds, 1)
	if m.MaxLoad > 0 && m.n > m.MaxLoad*len(m.buckets) {
		m.grow()
	}
	return nil
}

// grow doubles the bucket array until the average chain length is back
// under MaxLoad, rehashing every entry. Called with the map lock held;
// purely host-side (no virtual charge).
func (m *Map) grow() {
	sz := len(m.buckets)
	for m.n > m.MaxLoad*sz {
		sz <<= 1
	}
	old := m.buckets
	m.buckets = make([]*entry, sz)
	m.mask = uint64(sz - 1)
	m.grows++
	for _, e := range old {
		for e != nil {
			next := e.next
			b := m.hash(e.key)
			e.next = m.buckets[b]
			m.buckets[b] = e
			e = next
		}
	}
}

// Buckets returns the current bucket-array size (tests, reports).
func (m *Map) Buckets() int { return len(m.buckets) }

// Grows returns how many times the bucket array has grown.
func (m *Map) Grows() int { return m.grows }

// Resolve looks up a binding, consulting the 1-behind cache first.
func (m *Map) Resolve(t *sim.Thread, k Key) (any, bool) {
	m.acquire(t)
	defer m.release(t)
	t.Count(&m.stats.Resolves, 1)
	st := &t.Engine().C.Stack
	if !m.NoCache && m.cacheValid && m.cacheKey == k {
		t.Count(&m.stats.CacheHits, 1)
		t.ChargeRand(st.MapCacheHit)
		return m.cacheVal, true
	}
	t.ChargeRand(st.MapHash)
	for e := m.buckets[m.hash(k)]; e != nil; e = e.next {
		if e.key == k {
			m.cacheKey, m.cacheVal, m.cacheValid = k, e.val, true
			return e.val, true
		}
	}
	return nil, false
}

// Unbind removes a binding.
func (m *Map) Unbind(t *sim.Thread, k Key) error {
	m.acquire(t)
	defer m.release(t)
	t.ChargeRand(t.Engine().C.Stack.MapHash)
	b := m.hash(k)
	for pe := &m.buckets[b]; *pe != nil; pe = &(*pe).next {
		if (*pe).key == k {
			*pe = (*pe).next
			m.n--
			t.Count(&m.stats.Unbinds, 1)
			if m.cacheValid && m.cacheKey == k {
				m.cacheValid = false
			}
			return nil
		}
	}
	return ErrNotFound
}

// Len returns the number of bindings.
func (m *Map) Len(t *sim.Thread) int {
	m.acquire(t)
	defer m.release(t)
	return m.n
}

// ForEach calls fn for every binding while holding the map lock; fn may
// call back into this map on the same thread (the counting lock admits
// the recursion — this is mapForEach from Section 2.1). Iteration stops
// if fn returns false.
func (m *Map) ForEach(t *sim.Thread, fn func(Key, any) bool) {
	m.acquire(t)
	defer m.release(t)
	for _, b := range m.buckets {
		for e := b; e != nil; e = e.next {
			t.ChargeRand(t.Engine().C.Stack.MapCacheHit)
			if !fn(e.key, e.val) {
				return
			}
		}
	}
}

// Stats returns a copy of the counters (atomic-load snapshot).
func (m *Map) Stats() Stats {
	return Stats{
		Resolves:  atomic.LoadInt64(&m.stats.Resolves),
		CacheHits: atomic.LoadInt64(&m.stats.CacheHits),
		Binds:     atomic.LoadInt64(&m.stats.Binds),
		Unbinds:   atomic.LoadInt64(&m.stats.Unbinds),
	}
}

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
