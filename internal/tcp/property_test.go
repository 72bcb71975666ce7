package tcp

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// TestReassemblyInvariantUnderAnyPermutation: whatever order data
// segments arrive in, the receiver must deliver exactly the sent byte
// stream, in order, with no duplication or loss — TCP's core contract.
func TestReassemblyInvariantUnderAnyPermutation(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			e := sim.New(cost.NewModel(cost.Challenge100), uint64(1000+trial))
			e.Spawn("test", 0, func(th *sim.Thread) {
				rng := sim.NewRand(uint64(77 + trial*13))
				cfg := DefaultConfig()
				cfg.Checksum = ChecksumEnforce
				cfg.Window = 1 << 20
				h := build(t, th, cfg, &wire{}, nil)
				w, tcb := h.w, h.tcbA

				// Random segments, total small enough to fit the
				// initial congestion window (2*MSS) so the scrambled
				// wire never stalls the sender.
				var want bytes.Buffer
				w.onData = always(hold)
				nseg := 2 + rng.Intn(6)
				budget := 2 * tcb.MSS()
				for i := 0; i < nseg && budget > 0; i++ {
					n := 1 + rng.Intn(400)
					if n > budget {
						n = budget
					}
					budget -= n
					payload := make([]byte, n)
					for j := range payload {
						payload[j] = byte(rng.Intn(256))
					}
					want.Write(payload)
					h.send(t, th, payload)
				}
				w.onData = nil

				// Random permutation of the held segments.
				perm := make([]int, len(w.held))
				for i := range perm {
					perm[i] = i
				}
				for i := len(perm) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					perm[i], perm[j] = perm[j], perm[i]
				}
				if err := w.release(th, perm); err != nil {
					t.Error(err)
					return
				}
				if got := h.sink.stream(); !bytes.Equal(got, want.Bytes()) {
					t.Errorf("trial %d: delivered %d bytes != sent %d bytes (perm %v)",
						trial, len(got), want.Len(), perm)
				}
			})
			e.Run()
		})
	}
}

// TestSequenceArithmeticWraps exercises the modular comparisons around
// the 2^32 wrap point.
func TestSequenceArithmeticWraps(t *testing.T) {
	hi := uint32(0xfffffff0)
	lo := uint32(0x10)
	if !seqLT(hi, lo) {
		t.Error("seqLT must treat post-wrap lo as greater")
	}
	if !seqGT(lo, hi) {
		t.Error("seqGT wrap")
	}
	if seqMax(hi, lo) != lo {
		t.Error("seqMax wrap")
	}
	if seqMin(hi, lo) != hi {
		t.Error("seqMin wrap")
	}
	if !seqLEQ(hi, hi) || !seqGEQ(lo, lo) {
		t.Error("reflexive comparisons")
	}
}

// TestTransferAcrossSequenceWrap runs a transfer whose sequence numbers
// cross the 32-bit wrap boundary.
func TestTransferAcrossSequenceWrap(t *testing.T) {
	run1(t, 99, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Checksum = ChecksumEnforce
		h := build(t, th, cfg, &wire{}, nil)
		// Force the connection's sequence space to just below the wrap.
		h.tcbA.lockAll(th)
		base := uint32(0xffffff00) - h.tcbA.sndNxt
		h.tcbA.sndUna += base
		h.tcbA.sndNxt += base
		h.tcbA.sndMax += base
		h.tcbA.unlockAll(th)
		h.tcbB.lockAll(th)
		h.tcbB.rcvNxt += base
		h.tcbB.unlockAll(th)

		for i := 0; i < 4; i++ {
			h.send(t, th, pattern(512, byte(i+1)))
		}
		if len(h.sink.payloads) != 4 {
			t.Fatalf("delivered %d across wrap, want 4", len(h.sink.payloads))
		}
		for i, p := range h.sink.payloads {
			if p[0] != byte(i+1) {
				t.Fatalf("order broken across wrap: %v", p[0])
			}
		}
	})
}
