// Hierarchical timing wheel (Varghese & Lauck's Scheme 6) over integer
// tick indices. Where the Wheel's list (event.go) keys on virtual
// nanoseconds and is advanced by its own manager thread, the TickWheel
// is a passive structure advanced by whoever owns the tick cadence
// (TCP's 500 ms slow timeout drives one): per-timer nodes sit in the
// slot of their expiry tick, so advancing one tick costs O(expiring
// timers + cascades), never O(armed timers). Nodes are caller-owned
// (typically embedded in the connection block), so arming allocates
// nothing.
package event

import (
	"repro/internal/sim"
)

const (
	tickBits   = 6
	tickSlots  = 1 << tickBits // 64 slots per level
	tickMask   = tickSlots - 1
	tickLevels = 3 // 64^3 ticks ≈ 36 h of 500 ms slow ticks
)

// TimerNode is one armable timer. Embed it in the owning object and set
// Arg/Which once; the wheel never allocates or frees nodes.
type TimerNode struct {
	Arg   any // owning object, opaque to the wheel
	Which int // owner's timer identifier

	deadline    int64 // absolute tick
	level, slot int32
	linked      bool
	prev, next  *TimerNode
}

// Deadline returns the node's absolute expiry tick (meaningful while
// armed).
func (n *TimerNode) Deadline() int64 { return n.deadline }

// TickWheel is the hierarchical wheel. All methods serialize on one sim
// lock; handlers never run under it (Advance returns the due nodes and
// the caller fires them).
type TickWheel struct {
	lock    *sim.Lock
	now     int64 // last tick advanced to
	levels  [tickLevels][tickSlots]*TimerNode
	pending int64
}

// NewTickWheel builds an empty wheel guarded by a lock of the given
// kind.
func NewTickWheel(kind sim.LockKind, name string) *TickWheel {
	return &TickWheel{lock: sim.NewLock(kind, name)}
}

// Now returns the wheel's current tick.
func (w *TickWheel) Now() int64 { return w.now }

// Pending returns the number of armed nodes.
func (w *TickWheel) Pending() int64 { return w.pending }

// levelFor picks the level whose span covers a delta of d ticks.
func levelFor(d int64) int {
	switch {
	case d < tickSlots:
		return 0
	case d < tickSlots*tickSlots:
		return 1
	default:
		return 2
	}
}

// insertLocked links n at its deadline's slot. A deadline at or before
// the current tick goes into the current level-0 slot (due immediately
// on the next Advance that reaches it).
func (w *TickWheel) insertLocked(n *TimerNode) {
	d := n.deadline - w.now
	if d < 0 {
		d = 0
	}
	lvl := levelFor(d)
	var slot int
	if d == 0 {
		lvl, slot = 0, int(w.now&tickMask)
	} else {
		slot = int((n.deadline >> (tickBits * lvl)) & tickMask)
	}
	n.level, n.slot = int32(lvl), int32(slot)
	head := w.levels[lvl][slot]
	n.prev, n.next = nil, head
	if head != nil {
		head.prev = n
	}
	w.levels[lvl][slot] = n
	n.linked = true
	w.pending++
}

func (w *TickWheel) unlinkLocked(n *TimerNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		w.levels[n.level][n.slot] = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	n.prev, n.next = nil, nil
	n.linked = false
	w.pending--
}

// Arm schedules (or reschedules) n to expire at the absolute tick
// deadline. Deadlines at or before the current tick are bumped to the
// next tick. Charges one event-schedule cost, like Wheel.Schedule.
func (w *TickWheel) Arm(t *sim.Thread, n *TimerNode, deadline int64) {
	w.lock.Acquire(t)
	t.ChargeRand(t.Engine().C.Stack.EventSchedule)
	if deadline <= w.now {
		deadline = w.now + 1
	}
	if n.linked {
		w.unlinkLocked(n)
	}
	n.deadline = deadline
	w.insertLocked(n)
	w.lock.Release(t)
}

// Cancel unlinks n if armed; it reports whether the node was armed.
// Charges one event-cancel cost.
func (w *TickWheel) Cancel(t *sim.Thread, n *TimerNode) bool {
	w.lock.Acquire(t)
	t.ChargeRand(t.Engine().C.Stack.EventCancel)
	was := n.linked
	if was {
		w.unlinkLocked(n)
	}
	w.lock.Release(t)
	return was
}

// cascadeLocked drains one upper-level slot, re-sorting its nodes into
// the levels their (now nearer) deadlines call for.
func (w *TickWheel) cascadeLocked(lvl, slot int) {
	n := w.levels[lvl][slot]
	w.levels[lvl][slot] = nil
	for n != nil {
		next := n.next
		n.linked = false
		n.prev, n.next = nil, nil
		w.pending--
		w.insertLocked(n)
		n = next
	}
}

// Advance moves the wheel forward to tick `to`, appending every node
// whose deadline has been reached to due and returning the extended
// slice. The caller fires the handlers after Advance returns, outside
// the wheel lock. Ticks with nothing expiring cost O(1).
func (w *TickWheel) Advance(t *sim.Thread, to int64, due []*TimerNode) []*TimerNode {
	w.lock.Acquire(t)
	for w.now < to {
		w.now++
		tk := w.now
		if tk&tickMask == 0 {
			if tk&(1<<(2*tickBits)-1) == 0 {
				w.cascadeLocked(2, int(tk>>(2*tickBits))&tickMask)
			}
			w.cascadeLocked(1, int(tk>>tickBits)&tickMask)
		}
		slot := int(tk & tickMask)
		for n := w.levels[0][slot]; n != nil; {
			next := n.next
			if n.deadline <= tk {
				t.ChargeRand(t.Engine().C.Stack.EventCancel)
				w.unlinkLocked(n)
				due = append(due, n)
			}
			n = next
		}
	}
	w.lock.Release(t)
	return due
}
