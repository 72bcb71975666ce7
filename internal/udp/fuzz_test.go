package udp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
)

// refSum is an independent RFC 1071 sum of a datagram as Demux receives
// it: the 16-bit one's-complement sum of the pseudo-header (addresses,
// protocol 17, the datagram's length) and every byte. A datagram
// checks out when it is all ones.
func refSum(src, dst [4]byte, seg []byte) uint16 {
	var sum uint32
	word := func(hi, lo byte) { sum += uint32(hi)<<8 | uint32(lo) }
	word(src[0], src[1])
	word(src[2], src[3])
	word(dst[0], dst[1])
	word(dst[2], dst[3])
	word(0, 17)
	sum += uint32(len(seg))
	for i := 0; i < len(seg); i += 2 {
		var lo byte
		if i+1 < len(seg) {
			lo = seg[i+1]
		}
		word(seg[i], lo)
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

// datagram builds a well-formed datagram from port 1000 to port 2000
// (what pair's receiving session is bound to), checksummed from hostA to
// hostB.
func datagram(payload []byte) []byte {
	b := make([]byte, HdrLen+len(payload))
	binary.BigEndian.PutUint16(b[0:2], 1000)
	binary.BigEndian.PutUint16(b[2:4], 2000)
	binary.BigEndian.PutUint16(b[4:6], uint16(len(b)))
	copy(b[HdrLen:], payload)
	setChecksum(b)
	return b
}

// setChecksum fills the checksum field so that the datagram checks out
// (0xffff where the sum gives 0, which means "not computed").
func setChecksum(b []byte) {
	b[6], b[7] = 0, 0
	ck := ^refSum(hostA, hostB, b)
	if ck == 0 {
		ck = 0xffff
	}
	binary.BigEndian.PutUint16(b[6:8], ck)
}

// FuzzUDPDemux feeds any byte string to the receiving protocol's Demux
// as an arriving datagram, with checksums enforced. Demux must never
// panic; it delivers exactly when the length field is in [8, len], the
// ports name the bound session and the checksum passes (or is zero,
// UDP's "not computed"); what it delivers is the datagram less its
// header; and the message is either delivered or freed, never both and
// never neither, by the allocator's count.
func FuzzUDPDemux(f *testing.F) {
	valid := datagram([]byte("the quick brown fox jumps over the lazy dog"))
	with := func(edit func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		edit(b)
		return b
	}
	// The bad lengths and the wrong port keep a good checksum, so only
	// the check under test can refuse them.
	lenField := func(n int) []byte {
		return with(func(b []byte) { binary.BigEndian.PutUint16(b[4:6], uint16(n)); setChecksum(b) })
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:HdrLen-1])
	f.Add(lenField(0))
	f.Add(lenField(HdrLen - 1))
	f.Add(lenField(len(valid) + 1))
	f.Add(with(func(b []byte) { binary.BigEndian.PutUint16(b[2:4], 2001); setChecksum(b) }))
	f.Add(with(func(b []byte) { b[HdrLen+5] ^= 0x20 }))
	f.Add(with(func(b []byte) { b[6], b[7] = 0, 0 }))
	f.Fuzz(func(t *testing.T, data []byte) {
		if max := msg.MaxClassBytes - msg.Headroom; len(data) > max {
			data = data[:max]
		}
		want := false
		if len(data) >= HdrLen {
			sport := binary.BigEndian.Uint16(data[0:2])
			dport := binary.BigEndian.Uint16(data[2:4])
			ln := int(binary.BigEndian.Uint16(data[4:6]))
			ck := binary.BigEndian.Uint16(data[6:8])
			want = ln >= HdrLen && ln <= len(data) && sport == 1000 && dport == 2000 &&
				(ck == 0 || refSum(hostA, hostB, data) == 0xffff)
		}
		run(t, func(th *sim.Thread) {
			_, rb, pb := pair(t, th, ChecksumEnforce)
			a := msg.NewAllocator(msg.DefaultConfig(1))
			m, err := a.New(th, len(data), msg.Headroom)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.CopyTemplate(0, data); err != nil {
				t.Fatal(err)
			}
			err = pb.Demux(th, m)
			delivered := len(rb.msgs) == 1
			if delivered != want || delivered != (err == nil) || len(rb.msgs) > 1 {
				t.Fatalf("delivered %d (Demux error %v), want delivery %v", len(rb.msgs), err, want)
			}
			frees := a.Stats().Frees
			if !delivered {
				if frees != 1 {
					t.Fatalf("dropped, and freed %d times", frees)
				}
				return
			}
			if frees != 0 {
				t.Fatalf("delivered, and freed %d times", frees)
			}
			if got := rb.msgs[0].Bytes(); !bytes.Equal(got, data[HdrLen:]) {
				t.Fatalf("delivered %d bytes, not the datagram's %d-byte payload", len(got), len(data)-HdrLen)
			}
			rb.msgs[0].Free(th)
			if s := a.Stats(); s.Frees != 1 || pb.Stats().Delivered != 1 {
				t.Fatalf("after the receiver's free: %d frees, %d counted delivered", s.Frees, pb.Stats().Delivered)
			}
		})
	})
}
