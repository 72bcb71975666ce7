// Package msg implements the x-kernel message tool: the facility for
// managing packet data, analogous to Berkeley mbufs (Section 2.1 of the
// paper).
//
// Messages are per-thread data structures and need no locks. They point
// to allocated buffers called MNodes, which are reference counted; the
// counts are manipulated atomically (or with lock-increment-unlock, the
// Section 5.2 comparison). MNodes come from per-processor LIFO caches
// when caching is enabled (Section 6) and otherwise from a global arena
// whose single lock models malloc's.
//
// None of that costs the host an allocation per packet: a freed node
// carries its last Message view struct to whoever allocates it next, on
// any processor, and a per-processor list recycles the views that die
// while their node lives on — clones and fragments.
package msg

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/sim"
)

// Headroom is the space reserved in front of application data for
// headers pushed on the way down the stack (TCP 20 + IP 20 + FDDI 16).
const Headroom = 64

// classes are the MNode buffer size classes.
var classes = [...]int{128, 512, 2048, 8192}

// MaxClassBytes is the largest MNode buffer class — the hard ceiling on
// any single contiguous message, merged GRO frames included.
const MaxClassBytes = 8192

// BatchConfig parameterizes receive-side GRO-style coalescing. The
// merge itself lives on Message (Absorb); the flush policy is applied
// by whoever owns the pending frame (the steering dispatcher, the
// driver pump loops).
type BatchConfig struct {
	// Enabled turns coalescing on. Off (or MaxSegs == 1) must leave
	// every code path byte-identical to an unbatched build.
	Enabled bool
	// MaxSegs caps how many wire segments one merged frame may carry
	// (default 8).
	MaxSegs int
	// MaxBytes caps the merged frame's total length, headers included
	// (default and ceiling MaxClassBytes).
	MaxBytes int
	// FlushTimeoutNs bounds how long a pending frame may wait for a
	// mergeable successor before it is flushed (default 50 µs).
	FlushTimeoutNs int64
}

// WithDefaults fills unset fields.
func (c BatchConfig) WithDefaults() BatchConfig {
	if c.MaxSegs <= 0 {
		c.MaxSegs = 8
	}
	if c.MaxBytes <= 0 || c.MaxBytes > MaxClassBytes {
		c.MaxBytes = MaxClassBytes
	}
	if c.FlushTimeoutNs <= 0 {
		c.FlushTimeoutNs = 50_000
	}
	return c
}

// Active reports whether coalescing can actually merge anything. A
// MaxSegs of 1 is the explicit "batching machinery on, merging off"
// point and must behave identically to Enabled == false.
func (c BatchConfig) Active() bool {
	c = c.WithDefaults()
	return c.Enabled && c.MaxSegs > 1
}

// ErrNoRoom is returned when a header push or pop exceeds the buffer.
var ErrNoRoom = errors.New("msg: not enough room")

// Config controls allocator behaviour.
type Config struct {
	// CacheEnabled selects per-processor LIFO MNode caches; when
	// false, every allocation goes through the global locked arena
	// (the paper's "messages not cached" curves).
	CacheEnabled bool
	// RefMode selects atomic vs lock-based reference counts.
	RefMode sim.RefMode
	// MaxProcs sizes the per-processor cache array.
	MaxProcs int
	// CacheDepth bounds each per-processor per-class free list.
	CacheDepth int
}

// DefaultConfig returns the baseline configuration used by the paper's
// Section 3 experiments: caching on, atomic reference counts.
func DefaultConfig(maxProcs int) Config {
	return Config{
		CacheEnabled: true,
		RefMode:      sim.RefAtomic,
		MaxProcs:     maxProcs,
		CacheDepth:   128,
	}
}

// MNode is one reference-counted buffer.
type MNode struct {
	buf      []byte
	class    int
	ref      sim.RefCount
	alloc    *Allocator
	next     *MNode
	lastProc int // processor that last used this buffer
	// view is the dead view struct the last Free parked for this node's
	// next New. Touched only while the node is exclusively owned (count
	// at zero before putNode, after getNode), so the free lists' own
	// synchronization carries it across processors.
	view *Message
}

// nodeView co-allocates a fresh node with its first view.
type nodeView struct {
	n MNode
	v Message
}

// Stats counts allocator activity, summed over processors.
type Stats struct {
	CacheHits   int64
	CacheMisses int64
	ArenaAllocs int64 // fresh buffers created by the arena
	Frees       int64
}

// viewCacheDepth bounds each per-processor free list of Message view
// structs; overflow is dropped to the garbage collector. Oversized now
// that only clone and fragment views use the lists: the deepest one got
// on bench's tcp-send-8conn-8p (a retransmission clone per segment) is
// 4. Not retuned on one workload's evidence.
const viewCacheDepth = 512

// cacheLine is the coherence unit per-processor state is padded to.
const cacheLine = 64

// procState is one processor's allocator state. Only threads on that
// processor touch it, which needs no lock on either substrate: the sim
// engine serializes threads, and the host runs one goroutine per
// processor (core's Stack.Run: pumps on 0..Procs-1, control and wheel
// above them). A cache hit or a cached free therefore touches no line
// another processor writes.
type procState struct {
	free  [len(classes)]*MNode
	count [len(classes)]int
	// views free-lists the Message view structs of clones and fragments,
	// which die while their node lives and so cannot ride home on it (a
	// host-allocation cache, not a simulated one: it charges no virtual
	// time).
	views     *Message
	viewCount int
	// hits, misses and frees are this processor's share of Stats.
	hits, misses, frees int64
}

// procCache pads procState to whole cache lines, so that neighbouring
// processors' state shares none.
type procCache struct {
	procState
	_ [(cacheLine - unsafe.Sizeof(procState{})%cacheLine) % cacheLine]byte
}

// Allocator hands out MNodes.
type Allocator struct {
	cfg         Config
	perProc     []procCache
	arenaLock   sim.Mutex
	arena       [len(classes)]*MNode
	arenaAllocs int64 // bumped under arenaLock
}

// NewAllocator builds an allocator for the given configuration.
func NewAllocator(cfg Config) *Allocator {
	if cfg.MaxProcs <= 0 {
		cfg.MaxProcs = 1
	}
	if cfg.CacheDepth <= 0 {
		cfg.CacheDepth = 128
	}
	a := &Allocator{cfg: cfg, perProc: make([]procCache, cfg.MaxProcs)}
	a.arenaLock.Name = "malloc"
	return a
}

// Stats sums the counters (atomic loads: host threads bump them
// concurrently).
func (a *Allocator) Stats() Stats {
	s := Stats{ArenaAllocs: atomic.LoadInt64(&a.arenaAllocs)}
	for i := range a.perProc {
		pc := &a.perProc[i]
		s.CacheHits += atomic.LoadInt64(&pc.hits)
		s.CacheMisses += atomic.LoadInt64(&pc.misses)
		s.Frees += atomic.LoadInt64(&pc.frees)
	}
	return s
}

// cache returns the calling thread's processor state.
func (a *Allocator) cache(t *sim.Thread) *procCache {
	return &a.perProc[t.Proc%len(a.perProc)]
}

// ArenaLockStats exposes the malloc-lock contention statistics.
func (a *Allocator) ArenaLockStats() sim.LockStats { return a.arenaLock.Stats() }

func classFor(size int) (int, error) {
	for i, c := range classes {
		if size <= c {
			return i, nil
		}
	}
	return 0, fmt.Errorf("msg: size %d exceeds largest class %d", size, classes[len(classes)-1])
}

// getNode produces an MNode whose buffer holds at least size bytes.
func (a *Allocator) getNode(t *sim.Thread, size int) (*MNode, error) {
	cl, err := classFor(size)
	if err != nil {
		return nil, err
	}
	st := &t.Engine().C.Stack
	if a.cfg.CacheEnabled {
		pc := a.cache(t)
		if n := pc.free[cl]; n != nil {
			pc.free[cl] = n.next
			pc.count[cl]--
			n.next = nil
			t.Count(&pc.hits, 1)
			t.ChargeRand(st.MsgAllocCached)
			n.lastProc = t.Proc
			n.ref.Init(a.cfg.RefMode, 1)
			return n, nil
		}
		t.Count(&pc.misses, 1)
	}
	// Global arena: the malloc path, serialized by one lock.
	a.arenaLock.Acquire(t)
	t.ChargeRand(st.MsgAllocArena)
	n := a.arena[cl]
	if n != nil {
		a.arena[cl] = n.next
		n.next = nil
	} else {
		t.Count(&a.arenaAllocs, 1)
		nv := new(nodeView)
		nv.n = MNode{buf: make([]byte, classes[cl]), class: cl, alloc: a, lastProc: -1, view: &nv.v}
		n = &nv.n
	}
	a.arenaLock.Release(t)
	// A buffer last used by another processor comes back with remote
	// cache lines: the memory contention per-processor caching avoids.
	if n.lastProc >= 0 && n.lastProc != t.Proc {
		t.ChargeRand(st.MsgCold * int64(classes[cl]) / 4096)
	}
	n.lastProc = t.Proc
	n.ref.Init(a.cfg.RefMode, 1)
	return n, nil
}

// putNode returns a zero-referenced node to the per-processor cache or
// the arena.
func (a *Allocator) putNode(t *sim.Thread, n *MNode) {
	st := &t.Engine().C.Stack
	t.ChargeRand(st.MsgFree)
	pc := a.cache(t)
	t.Count(&pc.frees, 1)
	if a.cfg.CacheEnabled {
		if pc.count[n.class] < a.cfg.CacheDepth {
			n.next = pc.free[n.class]
			pc.free[n.class] = n
			pc.count[n.class]++
			return
		}
	}
	a.arenaLock.Acquire(t)
	n.next = a.arena[n.class]
	a.arena[n.class] = n
	a.arenaLock.Release(t)
}

// Message is a per-thread view [head, tail) into an MNode's buffer.
//
// View structs are recycled: the Free that releases a node parks the
// struct on it for the node's next New, any other Free returns it to a
// per-processor list that Clone and Fragment draw on. A freed Message
// must therefore not be touched again — the struct may already be
// another packet.
type Message struct {
	node *MNode
	head int
	tail int

	// nextView links pooled view structs (nil while in use).
	nextView *Message

	// Ticket carries the Section 4.2 up-ticket from TCP to the
	// application when ticketing is enabled.
	Ticket   uint64
	Ticketed bool

	// Seq carries driver-side ordering metadata for the wire-order
	// probes (not protocol state).
	Seq uint64

	// SrcAddr and DstAddr are message attributes set by the IP layer
	// on the way up so transports can rebuild their demux keys (the
	// x-kernel passes such out-of-band data as message attributes).
	SrcAddr [4]byte
	DstAddr [4]byte

	// Born is the virtual time this packet's payload entered the
	// system (stamped by the application source or receiving driver
	// while the flight recorder is on; zero when unstamped). The
	// recorder's end-to-end latency histogram is fed from it at final
	// consumption, its only reader. Clone copies it; Fragment propagates
	// it to each fragment.
	Born int64

	// Segs is the number of wire segments coalesced into this view by
	// Absorb (GRO). Zero means one — an ordinary unmerged packet — so
	// view recycling needs no special reset and unbatched paths never
	// see a nonzero value.
	Segs uint16
}

// SegCount returns how many wire segments this view carries (>= 1).
func (m *Message) SegCount() int {
	if m.Segs == 0 {
		return 1
	}
	return int(m.Segs)
}

// Tailroom reports the buffer space available behind the view — the
// room Absorb can grow into.
func (m *Message) Tailroom() int { return len(m.node.buf) - m.tail }

// newView produces a zeroed Message struct from the per-processor view
// cache (or fresh). Purely a host-allocation optimization: no virtual
// time is charged.
func (a *Allocator) newView(t *sim.Thread) *Message {
	pc := a.cache(t)
	if m := pc.views; m != nil {
		pc.views = m.nextView
		pc.viewCount--
		*m = Message{}
		return m
	}
	return &Message{}
}

// recycleView parks a dead view struct for reuse (bounded; overflow is
// left to the garbage collector).
func (a *Allocator) recycleView(t *sim.Thread, m *Message) {
	pc := a.cache(t)
	if pc.viewCount >= viewCacheDepth {
		return
	}
	m.nextView = pc.views
	pc.views = m
	pc.viewCount++
}

// New allocates a message with size bytes of payload space and the given
// headroom in front of it.
func (a *Allocator) New(t *sim.Thread, size, headroom int) (*Message, error) {
	n, err := a.getNode(t, size+headroom)
	if err != nil {
		return nil, err
	}
	m := n.view
	if m != nil {
		n.view = nil
		*m = Message{}
	} else {
		m = a.newView(t)
	}
	m.node = n
	m.head = headroom
	m.tail = headroom + size
	return m, nil
}

// Len returns the view length.
func (m *Message) Len() int { return m.tail - m.head }

// Bytes returns the current view. The caller must treat it as owned by
// this message only while the node is unshared.
func (m *Message) Bytes() []byte { return m.node.buf[m.head:m.tail] }

// Headroom reports the space available for Push.
func (m *Message) Headroom() int { return m.head }

// Push prepends an n-byte header and returns the slice to fill in. If
// the node is shared (a retransmission clone, a fragment), the data is
// first copied to a private node — x-kernel messages never scribble on
// shared buffers.
func (m *Message) Push(t *sim.Thread, n int) ([]byte, error) {
	st := &t.Engine().C.Stack
	if m.node.ref.Value() > 1 {
		if err := m.privatize(t); err != nil {
			return nil, err
		}
	}
	if m.head < n {
		return nil, ErrNoRoom
	}
	t.ChargeRand(st.MsgOp)
	m.head -= n
	return m.node.buf[m.head : m.head+n], nil
}

// Pop strips an n-byte header from the front and returns it.
func (m *Message) Pop(t *sim.Thread, n int) ([]byte, error) {
	if m.Len() < n {
		return nil, ErrNoRoom
	}
	t.ChargeRand(t.Engine().C.Stack.MsgOp)
	h := m.node.buf[m.head : m.head+n]
	m.head += n
	return h, nil
}

// Peek returns the first n bytes without stripping them.
func (m *Message) Peek(n int) ([]byte, error) {
	if m.Len() < n {
		return nil, ErrNoRoom
	}
	return m.node.buf[m.head : m.head+n], nil
}

// TrimBack drops n bytes from the end of the view.
func (m *Message) TrimBack(t *sim.Thread, n int) error {
	if m.Len() < n {
		return ErrNoRoom
	}
	t.ChargeRand(t.Engine().C.Stack.MsgOp)
	m.tail -= n
	return nil
}

// TrimFront drops n bytes from the start of the view.
func (m *Message) TrimFront(t *sim.Thread, n int) error {
	if m.Len() < n {
		return ErrNoRoom
	}
	t.ChargeRand(t.Engine().C.Stack.MsgOp)
	m.head += n
	return nil
}

// privatize copies the view into a fresh unshared node, preserving
// Headroom for further pushes.
func (m *Message) privatize(t *sim.Thread) error {
	ln := m.Len()
	n, err := m.node.alloc.getNode(t, ln+Headroom)
	if err != nil {
		return err
	}
	t.ChargeBytes(t.Engine().C.Stack.CopyByte, ln)
	copy(n.buf[Headroom:], m.node.buf[m.head:m.tail])
	old := m.node
	m.node = n
	m.head = Headroom
	m.tail = Headroom + ln
	if old.ref.Decr(t) {
		old.alloc.putNode(t, old)
	}
	return nil
}

// Clone returns a second view of the same node (reference counted).
// TCP's retransmission queue holds clones of transmitted segments.
func (m *Message) Clone(t *sim.Thread) *Message {
	m.node.ref.Incr(t)
	c := m.node.alloc.newView(t)
	*c = *m
	c.nextView = nil
	return c
}

// Fragment returns a view of the sub-range [off, off+n) sharing the same
// node — zero-copy IP fragmentation.
func (m *Message) Fragment(t *sim.Thread, off, n int) (*Message, error) {
	if off < 0 || n < 0 || off+n > m.Len() {
		return nil, ErrNoRoom
	}
	m.node.ref.Incr(t)
	f := m.node.alloc.newView(t)
	f.node = m.node
	f.head = m.head + off
	f.tail = m.head + off + n
	f.Born = m.Born
	return f, nil
}

// Free drops this view's reference. At zero the node returns to the
// allocator carrying the view struct; otherwise (or if privatize moved
// this view onto a node that still carries its own) the struct goes to
// the per-processor view cache. The message must not be used after Free.
func (m *Message) Free(t *sim.Thread) {
	if m.node == nil {
		return
	}
	n := m.node
	m.node = nil
	a := n.alloc
	last := n.ref.Decr(t)
	if last && n.view == nil {
		n.view = m
	} else {
		a.recycleView(t, m)
	}
	if last {
		a.putNode(t, n)
	}
}

// Refs exposes the node's reference count (tests, assertions).
func (m *Message) Refs() int32 { return m.node.ref.Value() }

// CopyIn writes data at offset off within the view, charging per-byte
// copy cost.
func (m *Message) CopyIn(t *sim.Thread, off int, data []byte) error {
	if off < 0 || off+len(data) > m.Len() {
		return ErrNoRoom
	}
	t.ChargeBytes(t.Engine().C.Stack.CopyByte, len(data))
	copy(m.node.buf[m.head+off:], data)
	return nil
}

// CopyTemplate writes data at the front of the view *without* per-byte
// charge: the driver's preconstructed-template trick (Section 2.3),
// whose whole point is avoiding per-byte work in the driver.
func (m *Message) CopyTemplate(off int, data []byte) error {
	if off < 0 || off+len(data) > m.Len() {
		return ErrNoRoom
	}
	copy(m.node.buf[m.head+off:], data)
	return nil
}

// Join concatenates parts into one fresh contiguous message (IP
// reassembly), charging per-byte copy. The parts are freed.
func Join(t *sim.Thread, a *Allocator, parts []*Message) (*Message, error) {
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	out, err := a.New(t, total, Headroom)
	if err != nil {
		return nil, err
	}
	off := 0
	for _, p := range parts {
		t.ChargeBytes(t.Engine().C.Stack.CopyByte, p.Len())
		copy(out.node.buf[out.head+off:], p.Bytes())
		off += p.Len()
		p.Free(t)
	}
	return out, nil
}

// Absorb appends o's view to this message in place (GRO coalescing),
// charging per-byte copy cost, and frees o. The head view's Segs
// accumulates both sides' segment counts. Fails with ErrNoRoom — and
// leaves o untouched for the caller to flush separately — when the
// node lacks tailroom for o's bytes.
func (m *Message) Absorb(t *sim.Thread, o *Message) error {
	if m.node.ref.Value() > 1 {
		if err := m.privatize(t); err != nil {
			return err
		}
	}
	n := o.Len()
	if m.Tailroom() < n {
		return ErrNoRoom
	}
	t.ChargeBytes(t.Engine().C.Stack.CopyByte, n)
	copy(m.node.buf[m.tail:], o.Bytes())
	m.tail += n
	m.Segs = uint16(m.SegCount() + o.SegCount())
	o.Free(t)
	return nil
}
