package chksum

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzIncremental checks the word-wide kernel against the byte-pair
// oracle, and the incremental interface against the one-shot one:
// accumulating a buffer through Partial in arbitrary even-length pieces
// must fold to exactly Sum of the whole buffer, and a segment stamped
// with SumPseudo must pass Verify. Seed corpus lives in
// testdata/fuzz/FuzzIncremental; the seeds added below are the shapes
// the kernel's loops turn on (block and word boundaries, odd tails,
// saturated carries).
func FuzzIncremental(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x45, 0x00, 0x00, 0x54, 0x12}, uint16(2))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint16(9))
	f.Add(bytes.Repeat([]byte{0xff}, 33), uint16(16))
	f.Add(bytes.Repeat([]byte{0x00, 0xff}, 40), uint16(61))
	for _, n := range []int{7, 8, 9, 63, 64, 65, 71, 72, 135, 257} {
		f.Add(testPattern(n), uint16(n/2))
	}
	f.Add(bytes.Repeat([]byte{0xff}, 65536), uint16(4096))
	f.Add(bytes.Repeat([]byte{0xff}, 4097), uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		want := Sum(data)
		if oracle := ^Fold(oraclePartial(0, data)); want != oracle {
			t.Errorf("Sum of %d bytes = %#04x, oracle %#04x", len(data), want, oracle)
		}

		// One split at an even offset: two Partial calls chain.
		s := int(cut) % (len(data) + 1)
		s &^= 1 // intermediate pieces must be even-length
		if got := ^Fold(Partial(Partial(0, data[:s]), data[s:])); got != want {
			t.Errorf("split at %d: got %#04x, want %#04x", s, got, want)
		}

		// A walk in small even strides: many Partial calls chain.
		stride := 2 * (1 + int(cut)%8)
		var sum uint64
		for i := 0; i < len(data); i += stride {
			end := i + stride
			if end > len(data) {
				end = len(data)
			}
			sum = Partial(sum, data[i:end])
		}
		if got := ^Fold(sum); got != want {
			t.Errorf("stride %d: got %#04x, want %#04x", stride, got, want)
		}

		// Pseudo-header round trip: a segment whose checksum field holds
		// SumPseudo (computed with the field zeroed) must verify.
		if len(data) >= 9 {
			var src, dst [4]byte
			copy(src[:], data[0:4])
			copy(dst[:], data[4:8])
			proto := data[8]
			seg := make([]byte, 2+len(data)-9)
			copy(seg[2:], data[9:])
			ck := SumPseudo(src, dst, proto, seg)
			binary.BigEndian.PutUint16(seg[0:2], ck)
			if !Verify(src, dst, proto, seg) {
				t.Errorf("Verify rejected a segment stamped with SumPseudo (proto %d, len %d)", proto, len(seg))
			}
		}
	})
}
