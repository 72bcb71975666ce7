package app

import (
	"errors"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FuzzSinkReceive feeds any bytes to the sink as one delivered message
// of 1-8 segments, ticketed (ticket 0) on a TCP sink over four
// connections and on a steered sink over four connections with a
// two-slot compact table and app migration. Receive must not panic; it
// accepts the message, counting all its segments and bytes, or refuses
// it with ErrDelivery, counting nothing; either way every message
// allocated is freed.
func FuzzSinkReceive(f *testing.F) {
	one := make([]byte, 64)
	workload.EncodeStamp(one, 3, 0, 0)
	two := append(append([]byte{}, one...), one...)
	workload.EncodeStamp(two[64:], 3, 1, 0)
	f.Add(one, uint8(0))            // one segment
	f.Add(two, uint8(1))            // two
	f.Add(two, uint8(2))            // 128 bytes are not three whole segments
	f.Add(one[:11], uint8(0))       // no room for a stamp
	f.Add([]byte{}, uint8(7))       // nothing at all, in eight segments
	f.Add(append(one, 9), uint8(0)) // one segment, one byte longer
	f.Fuzz(func(t *testing.T, b []byte, segs uint8) {
		if len(b) > 4096 {
			return // larger than any frame the stack carries
		}
		segs = segs%8 + 1 // 1-8
		e := sim.New(cost.NewModel(cost.Challenge100), 1)
		a := newAlloc()
		var seq sim.Sequencer
		tcp := NewSink(4)
		tcp.Seq = &seq
		steered := NewSteeredSink(workload.Config{CompactSlots: 2, AppMoveEvery: 1, Seed: 1}, 4, 2)
		e.Spawn("t", 0, func(th *sim.Thread) {
			for _, s := range []*Sink{tcp, steered} {
				m, err := a.New(th, len(b), 0)
				if err != nil {
					t.Fatal(err)
				}
				copy(m.Bytes(), b)
				m.Segs = uint16(segs)
				if s.Seq != nil {
					m.Ticket, m.Ticketed = seq.Ticket(th), true
				}
				pkts, bytes := s.Packets(), s.Bytes()
				err = s.Receive(th, m)
				switch {
				case err == nil && (s.Packets()-pkts != int64(segs) || s.Bytes()-bytes != int64(len(b))):
					t.Errorf("accepted %d bytes in %d segments, counted %d and %d", len(b), segs, s.Bytes()-bytes, s.Packets()-pkts)
				case err != nil && !errors.Is(err, ErrDelivery):
					t.Errorf("refused with an unnamed error: %v", err)
				case err != nil && (s.Packets() != pkts || s.Bytes() != bytes):
					t.Errorf("refused, yet counted: %v", err)
				}
			}
		})
		e.Run()
		if st := a.Stats(); st.CacheHits+st.ArenaAllocs != st.Frees {
			t.Errorf("%d messages allocated, %d freed", st.CacheHits+st.ArenaAllocs, st.Frees)
		}
	})
}
