package steer

import (
	"testing"

	"repro/internal/sim"
)

// oracleToeplitz is the hash as the RSS specification words it — walk
// the 96 input bits, XOR in the 32-bit key window at each set bit — and
// what Steerer.Hash did before the table. Kept as the reference the
// table is checked against; it shares no code with it (the window
// slides along the key a bit at a time here, keyWindow indexes it).
func oracleToeplitz(key *[ToeplitzKeySize]byte, data [12]byte) uint32 {
	var h uint32
	window := uint32(key[0])<<24 | uint32(key[1])<<16 | uint32(key[2])<<8 | uint32(key[3])
	for i := 0; i < len(data)*8; i++ {
		if data[i/8]&(0x80>>(i%8)) != 0 {
			h ^= window
		}
		next := key[4+i/8] >> (7 - i%8) & 1
		window = window<<1 | uint32(next)
	}
	return h
}

// rssVectors is the published Microsoft RSS verification suite (IPv4
// with TCP ports, default key).
var rssVectors = []struct {
	tu   Tuple
	want uint32
}{
	{Tuple{[4]byte{66, 9, 149, 187}, [4]byte{161, 142, 100, 80}, 2794, 1766}, 0x51ccc178},
	{Tuple{[4]byte{199, 92, 111, 2}, [4]byte{65, 69, 140, 83}, 14230, 4739}, 0xc626b0ea},
	{Tuple{[4]byte{24, 19, 198, 95}, [4]byte{12, 22, 207, 184}, 12898, 38024}, 0x5c2b394a},
	{Tuple{[4]byte{38, 27, 205, 30}, [4]byte{209, 142, 163, 6}, 48228, 2217}, 0xafc7327f},
	{Tuple{[4]byte{153, 39, 163, 191}, [4]byte{202, 188, 127, 2}, 44251, 1303}, 0x10e828a2},
}

// TestToeplitzVectors pins both the oracle and the Steerer's table to
// the published vectors.
func TestToeplitzVectors(t *testing.T) {
	s := New(Config{Enabled: true, Policy: PolicyRSS}, 4)
	for i, v := range rssVectors {
		if got := oracleToeplitz(&DefaultToeplitzKey, v.tu.bytes()); got != v.want {
			t.Errorf("vector %d: oracle hash %#x, want %#x", i, got, v.want)
		}
		if got := s.Hash(v.tu); got != v.want {
			t.Errorf("vector %d: Steerer.Hash %#x, want %#x", i, got, v.want)
		}
	}
}

// toeplitzInputs feeds fn the differential's inputs: the RSS vectors,
// then n seeded random tuples.
func toeplitzInputs(n int, fn func(tu Tuple)) {
	for _, v := range rssVectors {
		fn(v.tu)
	}
	rng := sim.NewRand(20)
	for i := 0; i < n; i++ {
		fn(randTuple(&rng))
	}
}

// TestToeplitzTableMatchesOracle: the table agrees with the bit-serial
// oracle on a million seeded tuples under the default key, and on fewer
// under seeded random keys (the default key alone could hide a
// dependence on its particular bytes).
func TestToeplitzTableMatchesOracle(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	check := func(key *[ToeplitzKeySize]byte, n int) {
		tb := newToeplitzTable(key)
		bad := 0
		toeplitzInputs(n, func(tu Tuple) {
			if got, want := tb.hash(tu.bytes()), oracleToeplitz(key, tu.bytes()); got != want && bad < 5 {
				bad++
				t.Errorf("key %x… tuple %+v: table %#x, oracle %#x", key[:4], tu, got, want)
			}
		})
	}
	check(&DefaultToeplitzKey, n)
	rng := sim.NewRand(21)
	for k := 0; k < 16; k++ {
		var key [ToeplitzKeySize]byte
		for i := range key {
			key[i] = byte(rng.Intn(256))
		}
		check(&key, n/100)
	}
}

// TestToeplitzMutantsDie: the differential's inputs tell the table from
// three wrong tables that are each one slip away from it. A mutant
// survives if it agrees with the oracle on every input — then the inputs,
// not the table, are what needs fixing.
func TestToeplitzMutantsDie(t *testing.T) {
	good := newToeplitzTable(&DefaultToeplitzKey)
	var shifted [ToeplitzKeySize]byte
	copy(shifted[:], DefaultToeplitzKey[1:])
	fromKey1 := newToeplitzTable(&shifted)
	for _, m := range []struct {
		name string
		hash func(tu Tuple) uint32
	}{
		{"table built from key[1:]", func(tu Tuple) uint32 {
			return fromKey1.hash(tu.bytes())
		}},
		{"byte position off by one", func(tu Tuple) uint32 {
			var h uint32
			for i, v := range tu.bytes() {
				h ^= good[(i+1)%len(good)][v]
			}
			return h
		}},
		{"ports taken little-endian", func(tu Tuple) uint32 {
			b := tu.bytes()
			b[8], b[9], b[10], b[11] = b[9], b[8], b[11], b[10]
			return good.hash(b)
		}},
	} {
		vectors, tuples, i := 0, 0, 0
		toeplitzInputs(10_000, func(tu Tuple) {
			if m.hash(tu) != oracleToeplitz(&DefaultToeplitzKey, tu.bytes()) {
				if i < len(rssVectors) {
					vectors++
				} else {
					tuples++
				}
			}
			i++
		})
		// Each set must kill on its own: the vectors are what a reader
		// checks by hand, the seeded tuples are what scales.
		if vectors == 0 || tuples == 0 {
			t.Errorf("mutant %q survives: caught by %d of %d vectors and %d of 10000 seeded tuples",
				m.name, vectors, len(rssVectors), tuples)
		}
	}
}

// FuzzToeplitz: for any key and any twelve input bytes the table built
// from the key hashes as the oracle does.
func FuzzToeplitz(f *testing.F) {
	for _, v := range rssVectors {
		b := v.tu.bytes()
		f.Add(DefaultToeplitzKey[:], b[:])
	}
	f.Add(make([]byte, ToeplitzKeySize), make([]byte, 12))
	f.Fuzz(func(t *testing.T, keyBytes, dataBytes []byte) {
		// Short inputs are zero-extended, long ones cut: every input
		// the fuzzer invents is a case.
		var key [ToeplitzKeySize]byte
		var data [12]byte
		copy(key[:], keyBytes)
		copy(data[:], dataBytes)
		if got, want := newToeplitzTable(&key).hash(data), oracleToeplitz(&key, data); got != want {
			t.Errorf("key %x data %x: table %#x, oracle %#x", key, data, got, want)
		}
	})
}

var toeplitzSink uint32

func BenchmarkToeplitzTable(b *testing.B) {
	s := New(Config{Enabled: true, Policy: PolicyRSS}, 4)
	tu := rssVectors[0].tu
	for i := 0; i < b.N; i++ {
		tu.SrcPort = uint16(i)
		toeplitzSink ^= s.Hash(tu)
	}
}

func BenchmarkToeplitzOracle(b *testing.B) {
	tu := rssVectors[0].tu
	for i := 0; i < b.N; i++ {
		tu.SrcPort = uint16(i)
		toeplitzSink ^= oracleToeplitz(&DefaultToeplitzKey, tu.bytes())
	}
}
