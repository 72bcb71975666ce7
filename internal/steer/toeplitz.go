package steer

// Toeplitz RSS hash, as specified for Microsoft RSS and implemented by
// essentially every steering-capable NIC: the hash of an n-bit input is
// the XOR of the 32-bit windows of the secret key at every set input
// bit position.

// ToeplitzKeySize is the RSS secret key length in bytes (320 bits,
// enough for the IPv4 4-tuple's 96 input bits plus the 32-bit window).
const ToeplitzKeySize = 40

// DefaultToeplitzKey is the widely used Microsoft reference key. A
// fixed key keeps steering decisions a pure function of the tuple;
// seeds vary the workload, not the hash.
var DefaultToeplitzKey = [ToeplitzKeySize]byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// Tuple is the IPv4 4-tuple fed to the hash, in wire order: source
// address, destination address, source port, destination port.
type Tuple struct {
	SrcIP   [4]byte
	DstIP   [4]byte
	SrcPort uint16
	DstPort uint16
}

// bytes serializes the tuple in the RSS input order.
func (tu Tuple) bytes() [12]byte {
	var b [12]byte
	copy(b[0:4], tu.SrcIP[:])
	copy(b[4:8], tu.DstIP[:])
	b[8], b[9] = byte(tu.SrcPort>>8), byte(tu.SrcPort)
	b[10], b[11] = byte(tu.DstPort>>8), byte(tu.DstPort)
	return b
}

// keyWindow extracts the 32 key bits starting at bit offset.
func keyWindow(key *[ToeplitzKeySize]byte, bit int) uint32 {
	byteOff := bit / 8
	shift := bit % 8
	var v uint64
	for j := 0; j < 5; j++ {
		var kb byte
		if byteOff+j < ToeplitzKeySize {
			kb = key[byteOff+j]
		}
		v = v<<8 | uint64(kb)
	}
	// v holds 40 key bits; drop the shift leading bits, keep 32.
	return uint32(v >> (8 - shift))
}

// toeplitzTable is a key unrolled for byte-at-a-time hashing: entry
// [i][v] is what input byte i contributes when its value is v, the XOR
// of the key windows at v's set bits. The hash is linear over XOR, so
// twelve lookups replace ninety-six bit tests.
type toeplitzTable [12][256]uint32

func newToeplitzTable(key *[ToeplitzKeySize]byte) *toeplitzTable {
	tb := new(toeplitzTable)
	for i := range tb {
		for b := 0; b < 8; b++ {
			w := keyWindow(key, i*8+b)
			for v := range tb[i] {
				if v&(0x80>>b) != 0 { // input bits count from the MSB
					tb[i][v] ^= w
				}
			}
		}
	}
	return tb
}

// hash computes the 32-bit Toeplitz hash of the serialized tuple.
func (tb *toeplitzTable) hash(data [12]byte) uint32 {
	var h uint32
	for i, v := range data {
		h ^= tb[i][v]
	}
	return h
}
