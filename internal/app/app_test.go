package app

import (
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/cost"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newAlloc() *msg.Allocator {
	return msg.NewAllocator(msg.DefaultConfig(8))
}

// stamped builds a size-byte delivery of segs segments, segment i
// stamped (conn, idx+i, 0), as the drivers stamp them.
func stamped(th *sim.Thread, a *msg.Allocator, size, segs, conn int, idx int64) *msg.Message {
	m, err := a.New(th, size*segs, msg.Headroom)
	if err != nil {
		panic(err)
	}
	for i := 0; i < segs; i++ {
		workload.EncodeStamp(m.Bytes()[i*size:], conn, idx+int64(i), 0)
	}
	m.Segs = uint16(segs)
	return m
}

func TestSinkCountsBytesAndPackets(t *testing.T) {
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	a := newAlloc()
	s := NewSink(1)
	e.Spawn("t", 0, func(th *sim.Thread) {
		for i := 0; i < 5; i++ {
			if err := s.Receive(th, stamped(th, a, 100, 1, 0, int64(i))); err != nil {
				t.Error(err)
			}
		}
	})
	e.Run()
	if s.Packets() != 5 || s.Bytes() != 500 {
		t.Fatalf("counted %d pkts / %d bytes", s.Packets(), s.Bytes())
	}
	var want Tally
	want.Stream(0, 5)
	if got := s.Delivered(); got != want {
		t.Fatalf("tally %+v, want %+v", got, want)
	}
}

// TestOrderedSinkWaitsForTickets: three threads deliver ticketed
// messages in scrambled timing; the ordered sink must run its critical
// sections in ticket order, which its in-order check (the k-th delivered
// segment must be segment k) confirms for each one.
func TestOrderedSinkWaitsForTickets(t *testing.T) {
	e := sim.New(cost.NewModel(cost.Challenge100), 2)
	a := newAlloc()
	var seq sim.Sequencer
	s := NewSink(1)
	s.Seq = &seq
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("d%d", i), i, func(th *sim.Thread) {
			th.Sleep(int64(i) * 100) // tickets drawn in order 0,1,2
			k := seq.Ticket(th)
			m := stamped(th, a, 64, 1, 0, int64(k))
			m.Ticket, m.Ticketed = k, true
			// Arrive out of order: thread 0 is slowest.
			th.Sleep(int64(3-i) * 50_000)
			if err := s.Receive(th, m); err != nil {
				t.Errorf("critical sections out of ticket order: %v", err)
			}
		})
	}
	e.Run()
	if s.Packets() != 3 {
		t.Fatalf("packets = %d", s.Packets())
	}
}

// TestTicketedSinkRefusesOutOfOrder: ticketed deliveries whose stamps do
// not follow the tickets are refused, and the tickets behind a refused
// one are still called.
func TestTicketedSinkRefusesOutOfOrder(t *testing.T) {
	e := sim.New(cost.NewModel(cost.Challenge100), 6)
	a := newAlloc()
	var seq sim.Sequencer
	s := NewSink(1)
	s.Seq = &seq
	var errs []error
	e.Spawn("t", 0, func(th *sim.Thread) {
		for _, idx := range []int64{0, 2, 1, 2} { // a refused delivery counts nothing
			m := stamped(th, a, 64, 1, 0, idx)
			m.Ticket, m.Ticketed = seq.Ticket(th), true
			errs = append(errs, s.Receive(th, m))
		}
		m := stamped(th, a, 8, 1, 0, 3) // no room for a stamp
		m.Ticket, m.Ticketed = seq.Ticket(th), true
		errs = append(errs, s.Receive(th, m))
		m = stamped(th, a, 64, 1, 0, 3)
		m.Ticket, m.Ticketed = seq.Ticket(th), true
		errs = append(errs, s.Receive(th, m))
	})
	e.Run()
	for i, want := range []bool{false, true, false, false, true, false} {
		if got := errors.Is(errs[i], ErrDelivery); got != want {
			t.Errorf("delivery %d: err %v, refused %v", i, errs[i], want)
		}
	}
	if st := a.Stats(); st.CacheHits+st.ArenaAllocs != st.Frees {
		t.Errorf("%d messages allocated, %d freed", st.CacheHits+st.ArenaAllocs, st.Frees)
	}
}

func TestUnticketedMessageBypassesWait(t *testing.T) {
	e := sim.New(cost.NewModel(cost.Challenge100), 3)
	a := newAlloc()
	var seq sim.Sequencer
	s := NewSink(1)
	s.Seq = &seq
	e.Spawn("t", 0, func(th *sim.Thread) {
		// Not ticketed: must not block on the sequencer.
		if err := s.Receive(th, stamped(th, a, workload.StampLen, 1, 0, 0)); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if s.Packets() != 1 {
		t.Fatal("unticketed message not delivered")
	}
}

// TestSinkRefusesWhatDoesNotDecode: a segment too short for a stamp, a
// stamp naming no connection and a merged frame that does not split
// into its segment count are each refused and freed; a merged frame of
// whole stamped segments counts every one.
func TestSinkRefusesWhatDoesNotDecode(t *testing.T) {
	a := newAlloc()
	for _, s := range []*Sink{NewSink(2), NewSteeredSink(workload.Config{CompactSlots: 1}, 2, 2)} {
		e := sim.New(cost.NewModel(cost.Challenge100), 7)
		e.Spawn("t", 0, func(th *sim.Thread) {
			bad := []*msg.Message{stamped(th, a, workload.StampLen-1, 1, 0, 0), stamped(th, a, 64, 1, 2, 0), stamped(th, a, 64, 3, 1, 0)}
			bad[2].Segs = 5 // 192 bytes are not five whole segments
			for i, m := range bad {
				if err := s.Receive(th, m); !errors.Is(err, ErrDelivery) {
					t.Errorf("bad delivery %d: err %v", i, err)
				}
			}
			if err := s.Receive(th, stamped(th, a, 64, 4, 1, 0)); err != nil {
				t.Error(err)
			}
		})
		e.Run()
		if s.Packets() != 4 || s.Bytes() != 256 {
			t.Errorf("counted %d segments, %d bytes; want 4 and 256", s.Packets(), s.Bytes())
		}
	}
	if st := a.Stats(); st.CacheHits+st.ArenaAllocs != st.Frees {
		t.Errorf("%d messages allocated, %d freed", st.CacheHits+st.ArenaAllocs, st.Frees)
	}
}

// TestTallySeesRepeatsNotOrder: a stream's tally is the same in any
// order, and differs when one segment is delivered twice in place of
// another.
func TestTallySeesRepeatsNotOrder(t *testing.T) {
	var want, shuffled, repeat Tally
	want.Stream(3, 4)
	for _, i := range []int64{2, 0, 3, 1} {
		shuffled.Segs++
		shuffled.Sum += mix(3, i)
	}
	for _, i := range []int64{0, 1, 1, 3} {
		repeat.Segs++
		repeat.Sum += mix(3, i)
	}
	if shuffled != want {
		t.Errorf("shuffled tally %+v, want %+v", shuffled, want)
	}
	if repeat.Segs != want.Segs || repeat.Sum == want.Sum {
		t.Errorf("a repeat in place of a gap went unseen: %+v against %+v", repeat, want)
	}
}

// TestSinkLayout: an unsteered sink stays in a 192 B size class; what
// only the steered shape needs sits behind Flows.
func TestSinkLayout(t *testing.T) {
	if n := unsafe.Sizeof(Sink{}); n > 192 {
		t.Errorf("Sink is %d bytes, want at most 192", n)
	}
}

func TestSourceProducesFilledMessages(t *testing.T) {
	e := sim.New(cost.NewModel(cost.Challenge100), 4)
	a := newAlloc()
	src := NewSource(a, 256)
	e.Spawn("t", 0, func(th *sim.Thread) {
		m, err := src.Next(th)
		if err != nil {
			t.Fatal(err)
		}
		if m.Len() != 256 {
			t.Errorf("len = %d", m.Len())
		}
		if m.Headroom() != msg.Headroom {
			t.Errorf("headroom = %d", m.Headroom())
		}
		if m.Bytes()[1] != 7 {
			t.Errorf("payload pattern wrong: %d", m.Bytes()[1])
		}
		m.Free(th)
	})
	e.Run()
}

func TestSourceChargesTime(t *testing.T) {
	e := sim.New(cost.NewModel(cost.Challenge100), 5)
	a := newAlloc()
	src := NewSource(a, 4096)
	var elapsed int64
	e.Spawn("t", 0, func(th *sim.Thread) {
		m, _ := src.Next(th)
		elapsed = th.Now()
		m.Free(th)
	})
	e.Run()
	// AppSend + alloc + 4 KB copy at ~19 ns/B must be > 70 us.
	if elapsed < 70_000 {
		t.Fatalf("source charged only %d ns", elapsed)
	}
}
