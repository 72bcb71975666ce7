// Package chksum implements the Internet one's-complement checksum
// (RFC 1071), reading the data a 64-bit word at a time.
//
// Two properties of the one's-complement sum make the wide kernel
// possible (RFC 1071 §2). (A) Deferred carries: 16-bit words may be
// added in any grouping in a wider register as long as every carry out
// of the top is added back in at the bottom, because 2^64-1 is a
// multiple of 2^16-1 — a 64-bit end-around-carry sum folds to the same
// 16 bits as the word-by-word one. (B) Byte-order independence: summing
// the byte-swapped words yields the byte-swapped sum, so the kernel
// loads little-endian words on every host (the cheap load on the hosts
// we run on; le64 is written byte by byte, so it is correct on any),
// never swaps inside the loop, and swaps the folded 16-bit result once.
//
// The carry chains are runs of bits.Add64 whose carry-out feeds the next
// carry-in (ADC on amd64, ADCS on arm64), two independent accumulators
// per 64-byte block so the chains overlap; the carry left at the end of
// one block enters the next, and the last is added back after the loop.
// Pure Go, no unsafe, no alignment assumption.
//
// The checksum is computed for real — protocol tests depend on actual
// header and payload validation — while the virtual time it costs is
// charged separately from the cost model by the protocol layers.
package chksum

import "math/bits"

// le64 loads a little-endian 64-bit word; the compiler makes it one
// load on hosts that allow it. It is binary.LittleEndian.Uint64 under a
// name of this package, so that a CPU profile charges the kernel's loads
// to chksum and not to encoding/binary (bench/ buckets samples by the
// leaf function's package, inlined or not).
//
// Partial only hands it stack copies of the data, made by array
// assignments that the race detector instruments as one range read each.
// The detector has therefore seen every byte before le64 reads the copy,
// and go:norace spares it eight more calls per word — under -race they
// made a 4 KB checksum cost 40 µs and left so little of a profile inside
// this package that bench's profile-decoding test found no sample here
// one run in eight.
//
//go:norace
func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Partial accumulates the unfolded checksum of data into sum. Data is
// treated as a sequence of big-endian 16-bit words; an odd trailing byte
// is padded with zero, which matches RFC 1071 when used on the final
// fragment only (intermediate calls must pass even-length slices). The
// value returned is only meaningful to Partial and Fold: the bulk of
// data enters it already folded to 16 bits.
func Partial(sum uint64, data []byte) uint64 {
	var a, b, ca, cb uint64
	for len(data) >= 64 {
		blk := *(*[64]byte)(data) // a stack copy: see le64
		a, ca = bits.Add64(a, le64(blk[0:]), ca)
		a, ca = bits.Add64(a, le64(blk[8:]), ca)
		a, ca = bits.Add64(a, le64(blk[16:]), ca)
		a, ca = bits.Add64(a, le64(blk[24:]), ca)
		b, cb = bits.Add64(b, le64(blk[32:]), cb)
		b, cb = bits.Add64(b, le64(blk[40:]), cb)
		b, cb = bits.Add64(b, le64(blk[48:]), cb)
		b, cb = bits.Add64(b, le64(blk[56:]), cb)
		data = data[64:]
	}
	for len(data) >= 8 {
		w := *(*[8]byte)(data)
		a, ca = bits.Add64(a, le64(w[:]), ca)
		data = data[8:]
	}
	// Join the accumulators and the two carries still owed. The last add
	// cannot carry: a sum that just wrapped is at most 1.
	a, ca = bits.Add64(a, b, ca)
	a, ca = bits.Add64(a, cb, ca)
	a += ca
	// Fold 64 bits to 16, end-around, then swap into network order once.
	a = a>>32 + a&0xffffffff // < 2^33
	a = a>>16 + a&0xffff     // < 2^17 + 2^16
	a = a>>16 + a&0xffff     // < 2^16 + 2
	a = a>>16 + a&0xffff
	sum += uint64(bits.ReverseBytes16(uint16(a)))

	// The tail, at most 7 bytes and at an even offset, word by word.
	i := 0
	for ; i+2 <= len(data); i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if i < len(data) {
		sum += uint64(data[i]) << 8
	}
	return sum
}

// Fold reduces an accumulated sum to the final 16-bit one's-complement
// checksum (not yet inverted).
func Fold(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return uint16(sum)
}

// Sum returns the Internet checksum of data: the one's complement of the
// folded one's-complement sum.
func Sum(data []byte) uint16 {
	return ^Fold(Partial(0, data))
}

// Pseudo accumulates the TCP/UDP pseudo-header: source and destination
// addresses, zero-padded protocol number, and segment length.
func Pseudo(sum uint64, src, dst [4]byte, proto uint8, length uint16) uint64 {
	sum += uint64(src[0])<<8 | uint64(src[1])
	sum += uint64(src[2])<<8 | uint64(src[3])
	sum += uint64(dst[0])<<8 | uint64(dst[1])
	sum += uint64(dst[2])<<8 | uint64(dst[3])
	sum += uint64(proto)
	sum += uint64(length)
	return sum
}

// SumPseudo returns the complete transport checksum over the
// pseudo-header plus segment bytes (header with zeroed checksum field,
// then payload).
func SumPseudo(src, dst [4]byte, proto uint8, segment []byte) uint16 {
	sum := Pseudo(0, src, dst, proto, uint16(len(segment)))
	sum = Partial(sum, segment)
	return ^Fold(sum)
}

// Verify reports whether segment (including its embedded checksum field)
// checks out against the pseudo-header: summing everything including the
// transmitted checksum must yield 0xffff (i.e. folded ^0 == 0).
func Verify(src, dst [4]byte, proto uint8, segment []byte) bool {
	sum := Pseudo(0, src, dst, proto, uint16(len(segment)))
	sum = Partial(sum, segment)
	return Fold(sum) == 0xffff
}
