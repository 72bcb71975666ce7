package core

import (
	"testing"

	"repro/internal/app"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDeliveryCheck: a TCP receive run passes its delivery check; one
// segment more than TCP took in order fails it, and so does a segment
// repeated in place of another, which leaves the count as it was, except
// under AssumeInOrder, where the check compares the count alone.
func TestDeliveryCheck(t *testing.T) {
	var one, two app.Tally
	one.Stream(1, 1) // connection 1's segment 0
	two.Stream(1, 2) // and its segment 1
	repeat := app.Tally{Sum: one.Sum - (two.Sum - one.Sum)}
	for _, inOrder := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Proto, cfg.Side, cfg.Procs, cfg.Connections = ProtoTCP, SideRecv, 2, 2
		cfg.AssumeInOrder = inOrder
		st, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Run(testWarmup, testMeasure); err != nil {
			t.Fatal(err)
		}
		if st.Sink.Packets() == 0 {
			t.Fatal("nothing delivered")
		}
		st.lost = one
		if err := st.checkDelivered(); err == nil {
			t.Errorf("inorder=%v: a segment more than TCP took passed", inOrder)
		}
		st.lost = repeat
		if err := st.checkDelivered(); (err == nil) != inOrder {
			t.Errorf("inorder=%v: a repeat in place of a segment: %v", inOrder, err)
		}
	}
}

// TestBuildRefusesUncheckableDelivery: a receive shape whose packets
// cannot hold the payload stamp is refused, and so is a corrupting fault
// wire with the checksum off, which would deliver damaged payload on
// purpose. With the checksum on, a corrupted frame is loss, and the run
// delivers what it checks.
func TestBuildRefusesUncheckableDelivery(t *testing.T) {
	small := DefaultConfig()
	small.Side, small.PacketSize = SideRecv, workload.StampLen-1
	if _, err := Build(small); err == nil {
		t.Errorf("a %d-byte receive packet accepted", small.PacketSize)
	}
	for _, up := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Proto, cfg.Side, cfg.Procs = ProtoTCP, SideRecv, 2
		if up {
			cfg.Faults.Up.Corrupt = 0.02
		} else {
			cfg.Faults.Down.Corrupt = 0.02
		}
		cfg.Checksum = false
		if _, err := Build(cfg); err == nil {
			t.Errorf("corruption (up %v) accepted with the checksum off", up)
		}
		cfg.Checksum = true
		st, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Run(1_000_000_000, 1_000_000_000); err != nil {
			t.Fatalf("corruption (up %v) with the checksum on: %v", up, err)
		}
		if st.Sink.Packets() == 0 || st.fault.Stats().Up.Corrupted+st.fault.Stats().Down.Corrupted == 0 {
			t.Errorf("corruption (up %v): %d packets delivered, fault stats %+v", up, st.Sink.Packets(), st.fault.Stats())
		}
	}
}

// TestTeardownFoldsUndelivered: a segment TCP handed to the layered app
// stage and teardown freed, parked on the tcp->app queue or refused by
// it once closed, counts in the delivery check as accepted and not
// delivered. (No catalogue run leaves one there: the app stage empties
// the queue while teardown drains the two below it.)
func TestTeardownFoldsUndelivered(t *testing.T) {
	st, err := Build(strategyCfg(StrategyLayered, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	st.q3 = sim.NewQueue("tcp->app", handoffCap)
	var want app.Tally
	want.Stream(1, 2)
	st.Eng.Spawn("teardown", 0, func(th *sim.Thread) {
		var ms [2]*msg.Message
		for i := range ms {
			if ms[i], err = st.Alloc.New(th, st.Cfg.PacketSize, 0); err != nil {
				t.Fatal(err)
			}
			workload.EncodeStamp(ms[i].Bytes(), 1, int64(i), 0)
		}
		if err := (&queueReceiver{st}).Receive(th, ms[0]); err != nil {
			t.Fatal(err)
		}
		st.drainQueue(th, st.q3)
		if err := (&queueReceiver{st}).Receive(th, ms[1]); err != nil {
			t.Fatal(err)
		}
	})
	st.Eng.Run()
	if st.lost != want {
		t.Errorf("teardown folded %+v, want %+v", st.lost, want)
	}
	if ms := st.Alloc.Stats(); ms.CacheHits+ms.ArenaAllocs != ms.Frees {
		t.Errorf("%d messages allocated, %d freed", ms.CacheHits+ms.ArenaAllocs, ms.Frees)
	}
}
