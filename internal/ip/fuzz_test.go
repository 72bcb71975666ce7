package ip

import (
	"encoding/binary"
	"testing"

	"repro/internal/chksum"
	"repro/internal/msg"
	"repro/internal/sim"
)

// FuzzHeaderRoundTrip builds a header with writeHeader, re-parses it
// through Demux, and checks the payload arrives intact — or, when the
// flags/offset field marks a fragment (MF set or a nonzero offset), that
// Demux drops it with ErrFragment, delivers nothing, counts it in
// FragsDropped and frees it. Then it corrupts a single header byte and
// checks the checksum rejects it (the Internet checksum detects every
// single-byte error). Seed corpus lives in
// testdata/fuzz/FuzzHeaderRoundTrip.
func FuzzHeaderRoundTrip(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint8(0), uint8(0), uint16(0))
	f.Add(uint16(512), uint16(7), uint8(3), uint8(0x80), uint16(0))
	f.Add(uint16(1), uint16(65535), uint8(10), uint8(0xff), uint16(0)) // checksum field itself
	f.Add(uint16(1480), uint16(1994), uint8(19), uint8(1), uint16(0))
	f.Add(uint16(1024), uint16(3), uint8(6), uint8(0x20), uint16(0x2000)) // MF: a first fragment
	f.Add(uint16(300), uint16(4), uint8(7), uint8(1), uint16(0x00b9))     // offset only: a last fragment
	f.Add(uint16(64), uint16(5), uint8(0), uint8(0), uint16(0x4000))      // DF alone: a whole datagram
	f.Fuzz(func(t *testing.T, plen, id uint16, corrupt, mask uint8, flagsOff uint16) {
		n := int(plen) % 2048
		fragment := flagsOff&0x3fff != 0
		run(t, func(th *sim.Thread) {
			p, up, alloc := newStack(t, th, 4352)
			m, err := alloc.New(th, HdrLen+n, msg.Headroom)
			if err != nil {
				t.Fatal(err)
			}
			b := m.Bytes()
			for i := HdrLen; i < len(b); i++ {
				b[i] = byte(i*7) + byte(id)
			}
			writeHeader(b[:HdrLen], HdrLen+n, id, flagsOff, ProtoUDP, hostA, hostA)

			// The written header must checksum to zero and parse back to
			// exactly the fields that went in.
			if got := chksum.Sum(b[:HdrLen]); got != 0 {
				t.Fatalf("written header sums to %#04x, want 0", got)
			}
			if got := binary.BigEndian.Uint16(b[2:4]); got != uint16(HdrLen+n) {
				t.Fatalf("totLen field = %d, want %d", got, HdrLen+n)
			}
			if got := binary.BigEndian.Uint16(b[4:6]); got != id {
				t.Fatalf("id field = %d, want %d", got, id)
			}
			if got := binary.BigEndian.Uint16(b[6:8]); got != flagsOff {
				t.Fatalf("flags/offset field = %#04x, want %#04x", got, flagsOff)
			}
			if b[9] != ProtoUDP {
				t.Fatalf("proto field = %d, want %d", b[9], ProtoUDP)
			}
			frame := append([]byte(nil), b...)

			delivered := 0
			switch err := p.Demux(th, m); {
			case fragment:
				if err != ErrFragment {
					t.Fatalf("Demux of a fragment (flags/offset %#04x) returned %v, want ErrFragment", flagsOff, err)
				}
				if len(up.msgs) != 0 {
					t.Fatalf("a fragment was delivered")
				}
				if st := p.Stats(); st.FragsDropped != 1 || st.Received != 0 {
					t.Fatalf("after a dropped fragment: %+v", st)
				}
				if !balanced(alloc) {
					t.Fatalf("dropped fragment not freed: %+v", alloc.Stats())
				}
			case err != nil:
				t.Fatalf("Demux rejected a well-formed packet: %v", err)
			default:
				delivered = 1
				if len(up.msgs) != 1 {
					t.Fatalf("delivered %d datagrams, want 1", len(up.msgs))
				}
				got := up.msgs[0]
				if got.Len() != n {
					t.Fatalf("payload len = %d, want %d", got.Len(), n)
				}
				for i := 0; i < n; i++ {
					if got.Bytes()[i] != byte((HdrLen+i)*7)+byte(id) {
						t.Fatalf("payload byte %d damaged", i)
					}
				}
			}

			// Flip one header byte: Demux must reject, not deliver.
			if mask != 0 {
				m2, err := alloc.New(th, len(frame), msg.Headroom)
				if err != nil {
					t.Fatal(err)
				}
				copy(m2.Bytes(), frame)
				m2.Bytes()[int(corrupt)%HdrLen] ^= mask
				if err := p.Demux(th, m2); err == nil {
					t.Fatalf("Demux accepted a header with byte %d xor %#02x", int(corrupt)%HdrLen, mask)
				}
				if len(up.msgs) != delivered {
					t.Fatalf("corrupted packet was delivered")
				}
			}
		})
	})
}
