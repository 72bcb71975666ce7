package chksum

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// oraclePartial is the kernel Partial replaced — big-endian 16-bit words
// assembled a byte at a time — kept as the reference the word-wide one
// must agree with after folding.
func oraclePartial(sum uint64, data []byte) uint64 {
	i := 0
	for ; i+2 <= len(data); i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if i < len(data) {
		sum += uint64(data[i]) << 8
	}
	return sum
}

// testPattern fills n bytes with a fixed sequence that has no period
// near a power of two and plenty of 0xff and 0x00.
func testPattern(n int) []byte {
	b := make([]byte, n)
	x := uint32(0x1994)
	for i := range b {
		x = x*1664525 + 1013904223
		switch v := byte(x >> 24); {
		case v < 24:
			b[i] = 0xff
		case v < 40:
			b[i] = 0
		default:
			b[i] = v
		}
	}
	return b
}

// TestPartialMatchesOracle: every length across the 8-byte and 64-byte
// loop boundaries, at every start offset within a word (the kernel must
// not care how its input is aligned), onto zero and non-zero running
// sums.
func TestPartialMatchesOracle(t *testing.T) {
	buf := testPattern(8 + 257)
	for off := 0; off <= 8; off++ {
		for n := 0; n <= 257; n++ {
			d := buf[off : off+n]
			for _, sum := range []uint64{0, 0xffff, 0x1234_5678, 1<<48 + 0xfffe} {
				if got, want := Fold(Partial(sum, d)), Fold(oraclePartial(sum, d)); got != want {
					t.Fatalf("offset %d length %d sum %#x: folded %#04x, oracle %#04x", off, n, sum, got, want)
				}
			}
		}
	}
}

// TestCarrySaturation: all-ones data makes every add in the kernel
// carry, block after block.
func TestCarrySaturation(t *testing.T) {
	for _, n := range []int{8, 64, 72, 4096, 65536, 65535, 65529} {
		d := bytes.Repeat([]byte{0xff}, n)
		if got, want := Fold(Partial(0, d)), Fold(oraclePartial(0, d)); got != want {
			t.Errorf("%d bytes of 0xff: folded %#04x, oracle %#04x", n, got, want)
		}
		if n%2 == 0 && Sum(d) != 0 {
			t.Errorf("%d bytes of 0xff: Sum = %#04x, want 0", n, Sum(d))
		}
	}
}

// TestCarryOutOfTheJoin builds the one block where adding the second
// accumulator's owed carry wraps the joined sum itself, so the very last
// end-around add is the one that matters.
func TestCarryOutOfTheJoin(t *testing.T) {
	d := make([]byte, 64)
	binary.LittleEndian.PutUint64(d[0:], 1<<64-2)  // first chain ends at 2^64-2, no carry
	binary.LittleEndian.PutUint64(d[32:], 1<<63)   // second chain: 2^63 ...
	binary.LittleEndian.PutUint64(d[56:], 1<<63+1) // ... + 2^63+1 = 1, carry owed
	if got, want := Fold(Partial(0, d)), Fold(oraclePartial(0, d)); got != want {
		t.Errorf("folded %#04x, oracle %#04x", got, want)
	}
}

// TestEveryEvenSplitChains: Partial adds into the running sum, so a
// buffer cut at any even offset — inside a block, inside a word — chains
// to the checksum of the whole.
func TestEveryEvenSplitChains(t *testing.T) {
	data := testPattern(301)
	want := Fold(oraclePartial(0, data))
	for cut := 0; cut <= len(data); cut += 2 {
		if got := Fold(Partial(Partial(0, data[:cut]), data[cut:])); got != want {
			t.Fatalf("split at %d: folded %#04x, want %#04x", cut, got, want)
		}
	}
}

// TestRFC1071WorkedExample is the example of RFC 1071 §3: the words
// 0001 f203 f4f5 f6f7 sum to 2ddf0, which folds to ddf2.
func TestRFC1071WorkedExample(t *testing.T) {
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Fold(Partial(0, data)); got != 0xddf2 {
		t.Errorf("folded sum = %#04x, want 0xddf2", got)
	}
	// Byte-swapped input yields the byte-swapped sum (§2(B)).
	swapped := []byte{0x01, 0x00, 0x03, 0xf2, 0xf5, 0xf4, 0xf7, 0xf6}
	if got := Fold(Partial(0, swapped)); got != 0xf2dd {
		t.Errorf("folded sum of swapped words = %#04x, want 0xf2dd", got)
	}
}

func TestPartialDoesNotAllocate(t *testing.T) {
	data := testPattern(4096 + 7)
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += Partial(sink, data) }); n != 0 {
		t.Errorf("Partial allocates %v times per call, want 0", n)
	}
}

// refSum is the obvious 16-bit-at-a-time reference implementation.
func refSum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

func TestSumKnownVectors(t *testing.T) {
	// RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2,
	// checksum 220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Sum(data); got != 0x220d {
		t.Errorf("Sum = %#04x, want 0x220d", got)
	}
	if got := Sum(nil); got != 0xffff {
		t.Errorf("Sum(nil) = %#04x, want 0xffff", got)
	}
	if got := Sum([]byte{0xff, 0xff}); got != 0x0000 {
		t.Errorf("Sum(ffff) = %#04x, want 0", got)
	}
}

func TestSumMatchesReference(t *testing.T) {
	f := func(data []byte) bool {
		return Sum(data) == refSum(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPartialComposesAcrossEvenBoundaries(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a)%2 == 1 {
			a = a[:len(a)-1] // intermediate chunks must be even
		}
		whole := append(append([]byte{}, a...), b...)
		split := Partial(Partial(0, a), b)
		return Fold(split) == Fold(Partial(0, whole))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestOddLengthTrailingByte(t *testing.T) {
	if got, want := Sum([]byte{0xab}), refSum([]byte{0xab}); got != want {
		t.Errorf("odd-length Sum = %#04x, want %#04x", got, want)
	}
	if got, want := Sum([]byte{1, 2, 3}), refSum([]byte{1, 2, 3}); got != want {
		t.Errorf("3-byte Sum = %#04x, want %#04x", got, want)
	}
}

func TestSumPseudoVerifyRoundTrip(t *testing.T) {
	src := [4]byte{10, 0, 0, 1}
	dst := [4]byte{10, 0, 0, 2}
	f := func(payload []byte, proto uint8) bool {
		// Build a fake segment: 4-byte header with a checksum field
		// at offset 2, then payload.
		seg := make([]byte, 4+len(payload))
		seg[0] = 0x12
		seg[1] = 0x34
		copy(seg[4:], payload)
		ck := SumPseudo(src, dst, proto, seg)
		seg[2] = byte(ck >> 8)
		seg[3] = byte(ck)
		return Verify(src, dst, proto, seg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	src := [4]byte{1, 2, 3, 4}
	dst := [4]byte{5, 6, 7, 8}
	seg := make([]byte, 64)
	for i := range seg {
		seg[i] = byte(i * 7)
	}
	seg[10], seg[11] = 0, 0
	ck := SumPseudo(src, dst, 17, seg)
	seg[10] = byte(ck >> 8)
	seg[11] = byte(ck)
	if !Verify(src, dst, 17, seg) {
		t.Fatal("valid segment failed verification")
	}
	seg[20] ^= 0x01
	if Verify(src, dst, 17, seg) {
		t.Fatal("corrupted segment passed verification")
	}
	seg[20] ^= 0x01
	if Verify(src, dst, 6, seg) {
		t.Fatal("wrong proto passed verification")
	}
}

func TestFoldIdempotent(t *testing.T) {
	f := func(x uint64) bool {
		v := Fold(x)
		return Fold(uint64(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSum4K(b *testing.B) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		Sum(data)
	}
}
