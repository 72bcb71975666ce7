package sim

import "sync/atomic"

// Queue is a bounded blocking FIFO used for thread-to-thread packet
// handoff by the connection-level and layered parallelization
// strategies (the alternatives to packet-level parallelism surveyed in
// Section 1 of the paper). Every dequeue charges the context-switch /
// service-dispatch cost that made those strategies pay on real
// hardware.
//
// The queue works unchanged on the host backend: its Mutex and Conds
// are the dual-mode primitives.
type Queue struct {
	Name string

	lock Mutex
	// ring holds the queued items: n of them, oldest at head. It is
	// allocated once, at capacity, so steady-state traffic never touches
	// the heap. n changes only under the lock, through setLen; Len reads
	// it without the lock.
	ring     []any
	head     int
	n        int32
	closed   bool
	notEmpty Cond
	notFull  Cond

	enqueued int64
	dequeued int64
	maxDepth int
}

// NewQueue builds a queue holding at most capacity items.
func NewQueue(name string, capacity int) *Queue {
	if capacity <= 0 {
		capacity = 1
	}
	q := &Queue{Name: name, ring: make([]any, capacity)}
	q.lock.Name = "queue:" + name
	q.notEmpty.L = &q.lock
	q.notFull.L = &q.lock
	return q
}

// Enqueue appends an item, blocking while the queue is full. It returns
// false if the queue was closed.
func (q *Queue) Enqueue(t *Thread, item any) bool {
	q.lock.Acquire(t)
	for int(q.n) == len(q.ring) && !q.closed {
		q.notFull.wait(t, "queue full:", q.Name)
	}
	if q.closed {
		q.lock.Release(t)
		return false
	}
	t.Charge(t.eng.C.Stack.QueueOp)
	q.push(t, item)
	q.notEmpty.Signal(t)
	q.lock.Release(t)
	return true
}

// Dequeue removes the oldest item, blocking while the queue is empty.
// It returns (nil, false) once the queue is closed and drained. The
// dequeue charges the context-switch cost of activating the consuming
// thread.
func (q *Queue) Dequeue(t *Thread) (any, bool) {
	q.lock.Acquire(t)
	for q.n == 0 && !q.closed {
		q.notEmpty.wait(t, "queue empty:", q.Name)
	}
	if q.n == 0 {
		q.lock.Release(t)
		return nil, false
	}
	t.Charge(t.eng.C.Stack.QueueOp)
	t.ChargeRand(t.eng.C.Stack.CtxSwitch)
	item := q.pop(t)
	q.notFull.Signal(t)
	q.lock.Release(t)
	return item, true
}

// TryDequeue removes the oldest item without blocking; ok reports
// whether an item was available.
func (q *Queue) TryDequeue(t *Thread) (any, bool) {
	q.lock.Acquire(t)
	if q.n == 0 {
		q.lock.Release(t)
		return nil, false
	}
	t.Charge(t.eng.C.Stack.QueueOp)
	t.ChargeRand(t.eng.C.Stack.CtxSwitch)
	item := q.pop(t)
	q.notFull.Signal(t)
	q.lock.Release(t)
	return item, true
}

// TryEnqueue appends an item only if there is room; ok reports success.
// Producers that must not block (to avoid circular waits among handoff
// queues) use this and service their own queues while retrying.
func (q *Queue) TryEnqueue(t *Thread, item any) bool {
	q.lock.Acquire(t)
	if int(q.n) == len(q.ring) || q.closed {
		q.lock.Release(t)
		return false
	}
	t.Charge(t.eng.C.Stack.QueueOp)
	q.push(t, item)
	q.notEmpty.Signal(t)
	q.lock.Release(t)
	return true
}

// push appends item to the ring; the caller holds the lock and has
// checked there is room.
func (q *Queue) push(t *Thread, item any) {
	i := q.head + int(q.n)
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = item
	q.setLen(t, q.n+1)
	if int(q.n) > q.maxDepth {
		q.maxDepth = int(q.n)
	}
	q.enqueued++
}

// pop removes the oldest item; the caller holds the lock and has
// checked the ring is not empty.
func (q *Queue) pop(t *Thread) any {
	item := q.ring[q.head]
	q.ring[q.head] = nil
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	q.setLen(t, q.n-1)
	q.dequeued++
	return item
}

// setLen stores n: host threads call Len without holding the lock.
func (q *Queue) setLen(t *Thread, n int32) {
	if t.eng.host != nil {
		atomic.StoreInt32(&q.n, n)
		return
	}
	q.n = n
}

// Close wakes every blocked producer and consumer; subsequent enqueues
// fail and dequeues drain the remaining items then fail.
func (q *Queue) Close(t *Thread) {
	q.lock.Acquire(t)
	q.closed = true
	q.notEmpty.Broadcast(t)
	q.notFull.Broadcast(t)
	q.lock.Release(t)
}

// Len returns the current depth (lock-free snapshot; exact in sim mode,
// racy-but-atomic on the host backend).
func (q *Queue) Len() int { return int(atomic.LoadInt32(&q.n)) }

// Stats returns (enqueued, dequeued, max depth).
func (q *Queue) Stats() (int64, int64, int) { return q.enqueued, q.dequeued, q.maxDepth }
