package tcp

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/msg"
	"repro/internal/sim"
)

// TestInputDoesNotAllocate pins receive-side input processing at zero
// heap allocations per segment once warm, on each route a data segment
// can take to the application: header prediction, the slow path in
// order, and a reassembly drain that hands up several segments at once.
func TestInputDoesNotAllocate(t *testing.T) {
	const dlen = 1024
	cases := []struct {
		name      string
		noPredict bool
		// offsets, in segments past rcv_nxt, of one round of arrivals.
		round []uint32
	}{
		{name: "predicted", round: []uint32{0}},
		{name: "slow-in-order", noPredict: true, round: []uint32{0}},
		{name: "reassembly-drain", round: []uint32{1, 2, 3, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New(cost.NewModel(cost.Challenge100), 1)
			e.Spawn("rx", 0, func(th *sim.Thread) {
				cfg := DefaultConfig()
				cfg.NoHeaderPrediction = tc.noPredict
				alloc := msg.NewAllocator(msg.DefaultConfig(1))
				p, tcbs := NewBench(th, cfg, alloc, 1)
				tcb := tcbs[0]
				round := func() {
					base := tcb.rcvNxt
					for _, off := range tc.round {
						m, err := alloc.New(th, dlen, msg.Headroom)
						if err != nil {
							t.Fatal(err)
						}
						sg := seg{seq: base + off*dlen, ack: tcb.sndUna, flags: FlagACK, win: tcb.sndWnd, dlen: dlen}
						if err := tcb.input(th, sg, m); err != nil {
							t.Fatal(err)
						}
					}
				}
				const rounds = 100
				allocs := testing.AllocsPerRun(rounds, round)
				if allocs != 0 {
					t.Errorf("%v allocs per round of %d segments, want 0", allocs, len(tc.round))
				}
				st := p.Stats()
				if want := int64((rounds + 1) * len(tc.round)); st.Delivered != want {
					t.Errorf("delivered %d segments, want %d", st.Delivered, want)
				}
				if wantPred := !tc.noPredict && len(tc.round) == 1; (st.Predicted > 0) != wantPred {
					t.Errorf("header prediction hits = %d, want some: %v", st.Predicted, wantPred)
				}
				if wantOOO := len(tc.round) > 1; (st.OOOSegsIn > 0) != wantOOO {
					t.Errorf("out-of-order segments = %d, want some: %v", st.OOOSegsIn, wantOOO)
				}
			})
			e.Run()
		})
	}
}

// TestFastTimoZeroAllocs enforces the timer subsystem's host-cost
// contract: a fast heartbeat that flushes pending delayed acks reuses
// the protocol-owned scratch slice and pool-recycled ack messages, so
// the steady state allocates nothing per heartbeat — the seed's
// per-tick flush-list allocation must not come back.
func TestFastTimoZeroAllocs(t *testing.T) {
	const conns, pending = 1024, 32
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	e.Spawn("tick", 0, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumOff
		cfg.Buckets = conns
		p, tcbs := NewBench(th, cfg, msg.NewAllocator(msg.DefaultConfig(1)), conns)
		next := 0
		allocs := testing.AllocsPerRun(100, func() {
			for j := 0; j < pending; j++ {
				// As input processing does after absorbing a data segment.
				tcb := tcbs[next%conns]
				next++
				tcb.locks.lockState(th)
				tcb.delAckPnd = true
				tcb.queueDelack(th)
				tcb.locks.unlockState(th)
			}
			p.fastTimo(th)
		})
		if allocs != 0 {
			t.Errorf("fast-timeout flush of %d delayed acks allocates %v times per heartbeat, want 0", pending, allocs)
		}
		if acks := p.Stats().AcksOut; acks < 100*pending {
			t.Errorf("flushed %d acks, want at least %d: the heartbeat is not doing the work", acks, 100*pending)
		}
	})
	e.Run()
}
