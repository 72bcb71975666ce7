package tcp

import (
	"encoding/binary"
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
)

// fuzzSeg builds a segment for FuzzTCPInput: seq and ack are offsets
// from the receiving TCB's rcv_nxt and snd_una, which the target adds
// back in.
func fuzzSeg(seqOff, ackOff uint32, flags uint8, win uint32, payload []byte) []byte {
	b := make([]byte, HdrLen+len(payload))
	putHeader(b, 2000, 1000, seqOff, ackOff, flags, win)
	copy(b[HdrLen:], payload)
	return b
}

// FuzzTCPInput feeds any byte string, as a TCP segment from B, to A's
// established connection through Protocol.Demux. A has two segments
// outstanding (the wire drops A's data), so acks have a queue to clean
// and a window to move. The segment's ports are set to the connection's
// and its seq and ack fields are offsets from A's rcv_nxt and snd_una,
// so every input reaches segment processing; checksums are computed and
// ignored. Demux must not panic; afterwards A's state is ESTABLISHED,
// CLOSE_WAIT or CLOSED, snd_una <= snd_nxt <= snd_max, and once both
// connections are aborted every message ever allocated has been freed.
func FuzzTCPInput(f *testing.F) {
	const win = 1 << 20 // what B advertises, so a seed can hit prediction
	f.Add(fuzzSeg(0, 0, FlagACK, win, []byte("in-order data from the peer")))
	f.Add(fuzzSeg(0, 256, FlagACK, win, nil))                // pure ack of the first outstanding segment
	f.Add(fuzzSeg(0, 0, FlagSYN, win, nil))                  // a SYN on an established connection
	f.Add(fuzzSeg(0, 0, FlagRST, win, nil))                  // reset
	f.Add(fuzzSeg(0, 0, FlagFIN|FlagACK, win, nil))          // orderly close from the peer
	f.Add(fuzzSeg(0, 0, FlagACK, 0, []byte{0x5a}))           // zero-window probe
	f.Add(fuzzSeg(4096, 0, FlagACK|FlagPSH, win, []byte{1})) // out of order, parked
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 4096 {
			return // larger than any frame the stack carries
		}
		run1(t, 1, func(th *sim.Thread) {
			cfg := DefaultConfig()
			cfg.Checksum = ChecksumCompute
			h := build(t, th, cfg, &wire{onData: always(drop)}, nil)
			h.send(t, th, pattern(256, 1))
			h.send(t, th, pattern(256, 2))
			a := h.tcbA

			m, err := h.alloc.New(th, len(b), msg.Headroom)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.CopyIn(th, 0, b); err != nil {
				t.Fatal(err)
			}
			m.SrcAddr, m.DstAddr = hostB, hostA
			if hd, err := m.Peek(HdrLen); err == nil {
				a.lockAll(th)
				binary.BigEndian.PutUint16(hd[0:2], 2000)
				binary.BigEndian.PutUint16(hd[2:4], 1000)
				binary.BigEndian.PutUint32(hd[4:8], binary.BigEndian.Uint32(hd[4:8])+a.rcvNxt)
				binary.BigEndian.PutUint32(hd[8:12], binary.BigEndian.Uint32(hd[8:12])+a.sndUna)
				a.unlockAll(th)
			}
			_ = h.pa.Demux(th, m) // refusing a segment is an answer too

			a.lockAll(th)
			state, una, nxt, smax := a.state, a.sndUna, a.sndNxt, a.sndMax
			a.unlockAll(th)
			if state != stateEstablished && state != stateCloseWait && state != stateClosed {
				t.Errorf("state %v after one segment on an established connection", state)
			}
			if !seqLEQ(una, nxt) || !seqLEQ(nxt, smax) {
				t.Errorf("snd_una %d, snd_nxt %d, snd_max %d out of order", una, nxt, smax)
			}
			a.Abort(th)
			h.tcbB.Abort(th)
			if st := h.alloc.Stats(); st.CacheHits+st.ArenaAllocs != st.Frees {
				t.Errorf("%d messages allocated, %d freed", st.CacheHits+st.ArenaAllocs, st.Frees)
			}
		})
	})
}
