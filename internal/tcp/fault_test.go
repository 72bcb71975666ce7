package tcp

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// faultSched is a per-trial fault schedule for the test wire: its
// verdict draws drop/corrupt/dup decisions for A->B data segments from
// the wire's own seeded PRNG, independent of the engine's.
type faultSched struct {
	rng                *sim.Rand
	drop, dup, corrupt float64
	drops, dups, corrs int
}

func (sc *faultSched) verdict(int) verdict {
	switch {
	case sc.drop > 0 && sc.rng.Float64() < sc.drop:
		sc.drops++
		return drop
	case sc.corrupt > 0 && sc.rng.Float64() < sc.corrupt:
		sc.corrs++
		return corrupt
	case sc.dup > 0 && sc.rng.Float64() < sc.dup:
		sc.dups++
		return dup
	}
	return pass
}

// TestFaultScheduleDeliversExactStream: under any schedule of drops,
// duplications and corruptions on the data path, the receiver's sink
// must observe an exact in-order prefix of the sent byte stream at all
// times, and — once the retransmission machinery has drained — the
// whole stream, with Rexmt+FastRexmt > 0 whenever segments were lost.
func TestFaultScheduleDeliversExactStream(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := sim.NewRand(uint64(41 + trial*17))
			sched := &faultSched{rng: &rng, drop: 0.2, dup: 0.2, corrupt: 0.2}
			cfg := DefaultConfig()
			cfg.Checksum = ChecksumEnforce
			cfg.Window = 1 << 20
			w := &wire{onData: sched.verdict, rng: &rng}
			withTimers(t, uint64(3000+trial), cfg, w, func(th *sim.Thread, h *harness) {
				prng := sim.NewRand(uint64(500 + trial))
				var want bytes.Buffer
				for i := 0; i < 10; i++ {
					n := 1 + prng.Intn(700)
					payload := make([]byte, n)
					for j := range payload {
						payload[j] = byte(prng.Intn(256))
					}
					want.Write(payload)
					h.send(t, th, payload)
					// The prefix invariant must hold at every step, not
					// just at the end: whatever has been delivered so far
					// is exactly the head of the sent stream.
					if !bytes.HasPrefix(want.Bytes(), h.sink.stream()) {
						t.Fatalf("trial %d: delivered bytes are not a prefix of the sent stream", trial)
					}
				}

				// Let the retransmission timers recover every loss (the
				// RTO backs off from 1 s; repeated losses of the same
				// segment can take several rounds).
				th.Sleep(120_000_000_000)

				if got := h.sink.stream(); !bytes.Equal(got, want.Bytes()) {
					t.Errorf("trial %d: delivered %d bytes != sent %d (drops %d, dups %d, corrupts %d)",
						trial, len(got), want.Len(), sched.drops, sched.dups, sched.corrs)
				}
				st := h.pa.Stats()
				if sched.drops+sched.corrs > 0 && st.Rexmt+st.FastRexmt == 0 {
					t.Errorf("trial %d: %d segments lost but no retransmission counted",
						trial, sched.drops+sched.corrs)
				}
				if sched.corrs > 0 && h.pb.Stats().ChecksumBad == 0 {
					t.Errorf("trial %d: %d corruptions but receiver counted no bad checksums",
						trial, sched.corrs)
				}
			})
		})
	}
}

// TestRetransmitLimitFreesClone: when the retransmission counter hits
// its ceiling, the clone drawn for the wire must be freed before the
// connection aborts — every allocation must come back to the allocator.
func TestRetransmitLimitFreesClone(t *testing.T) {
	run1(t, 17, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumEnforce
		h := build(t, th, cfg, &wire{onData: always(drop)}, nil)
		// One unacked segment sits on the retransmission queue (the wire
		// ate it on the way to B).
		h.send(t, th, pattern(256, 1))
		h.tcbA.lockAll(th)
		queued := len(h.tcbA.rexmtQ)
		h.tcbA.rxtShift = maxRexmtCnt // next slow-timer expiry is the last straw
		h.tcbA.unlockAll(th)
		if queued != 1 {
			t.Fatalf("rexmtQ holds %d segments, want 1", queued)
		}
		if err := h.tcbA.retransmit(th, false); err != nil {
			t.Fatal(err)
		}
		if h.tcbA.State() != "CLOSED" {
			t.Fatalf("state = %s after rexmt limit, want CLOSED", h.tcbA.State())
		}
		// B saw the RST and dropped too; with both queues drained every
		// message the test allocated must have been freed.
		st := h.alloc.Stats()
		if st.CacheHits+st.ArenaAllocs != st.Frees {
			t.Errorf("allocator unbalanced after rexmt-limit abort: %d allocs, %d frees",
				st.CacheHits+st.ArenaAllocs, st.Frees)
		}
	})
}
