package driver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/chksum"
	"repro/internal/ip"
	"repro/internal/msg"
	"repro/internal/sim"
)

// mergeCase is what the two merge fuzz targets differ in.
type mergeCase struct {
	name  string
	proto uint8
	hdr   int // frame bytes before the payload
	ckOff int // the transport checksum field's offset in the frame
	// template builds frame i of the run, unchecksummed, for an n-byte
	// payload the caller copies in.
	template func(i, n int) []byte
	merge    func(t *sim.Thread, head, donor *msg.Message) error
	// check is the transport header's share of "still a frame the stack
	// accepts", for a frame of merged n-byte segments.
	check func(t *testing.T, b []byte, merged, n int)
}

// fuzzMerge: a run of equal-length segments of one flow, merged into
// its first frame, is still a frame the stack accepts — the IP header
// checks out and covers the frame, the transport header covers the
// payload (c.check), a checksummed segment stays validly checksummed —
// counts its segments, and splits by stride back into the payloads it
// was made from. The head's tailroom is the fuzzer's too: a merge is
// refused exactly when Fits says the donor does not fit, with ErrNoRoom,
// and both frames keep their bytes.
func fuzzMerge(t *testing.T, c mergeCase, seed []byte, payloadLen uint16, runLen uint8, room uint16, checksummed bool) {
	if len(seed) == 0 {
		seed = []byte{0}
	}
	n := 1 + int(payloadLen)%1400
	segs := 1 + int(runLen)%8
	grow := int(room) % (msg.MaxClassBytes - c.hdr - n + 1)
	off := offIP + ip.HdrLen // the transport header's
	frame := func(i int) []byte {
		fr := c.template(i, n)
		for j := 0; j < n; j++ {
			fr[c.hdr+j] = seed[(i*n+j)%len(seed)] + byte(i)
		}
		if checksummed {
			ck := chksum.SumPseudo(HostPeer, HostLocal, c.proto, fr[off:])
			if ck == 0 {
				ck = 0xffff
			}
			binary.BigEndian.PutUint16(fr[c.ckOff:], ck)
		}
		return fr
	}
	run(t, 1, func(th *sim.Thread) {
		a := newAlloc()
		produce := func(i, tail int) *msg.Message {
			fr := frame(i)
			m, err := a.New(th, len(fr)+tail, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.TrimBack(th, tail); err != nil {
				t.Fatal(err)
			}
			copy(m.Bytes(), fr)
			return m
		}
		head := produce(0, grow)
		room := head.Tailroom() // grow, rounded up to the buffer class
		merged := 1
		for ; merged < segs; merged++ {
			d := produce(merged, 0)
			before := append([]byte{}, head.Bytes()...)
			fits, tail := Fits(head, n), head.Tailroom()
			err := c.merge(th, head, d)
			if fits {
				if err != nil {
					t.Fatalf("donor %d fits (%d bytes into %d) but Merge%s = %v", merged, n, tail, c.name, err)
				}
				continue
			}
			if !errors.Is(err, msg.ErrNoRoom) {
				t.Fatalf("donor %d does not fit (%d bytes into %d) but Merge%s = %v", merged, n, tail, c.name, err)
			}
			if !bytes.Equal(head.Bytes(), before) || !bytes.Equal(d.Bytes(), frame(merged)) {
				t.Fatalf("donor %d refused, but a frame changed", merged)
			}
			d.Free(th)
			break
		}
		if want := min(segs, 1+room/n); merged != want {
			t.Fatalf("%d segments merged, want %d (%d offered, %d-byte payloads, %d bytes of room)", merged, want, segs, n, room)
		}
		b := head.Bytes()
		if head.SegCount() != merged || len(b) != c.hdr+merged*n {
			t.Fatalf("merged frame: SegCount %d, %d bytes; want %d and %d", head.SegCount(), len(b), merged, c.hdr+merged*n)
		}
		if chksum.Sum(b[offIP:offIP+ip.HdrLen]) != 0 {
			t.Error("merged frame: IP header checksum does not verify")
		}
		if got := int(binary.BigEndian.Uint16(b[offIP+2:])); got != len(b)-offIP {
			t.Errorf("merged frame: IP total length %d, want %d", got, len(b)-offIP)
		}
		c.check(t, b, merged, n)
		// udp.Demux's rule and tcp's verifyChecksum's: a zero field is
		// "not checksummed", anything else must verify.
		if field := binary.BigEndian.Uint16(b[c.ckOff:]); checksummed != (field != 0) ||
			(checksummed && !chksum.Verify(HostPeer, HostLocal, c.proto, b[off:])) {
			t.Errorf("merged frame: %s checksum field %#04x does not verify (checksummed input: %v)", c.name, field, checksummed)
		}
		for i := 0; i < merged; i++ {
			if !bytes.Equal(b[c.hdr+i*n:c.hdr+(i+1)*n], frame(i)[c.hdr:]) {
				t.Errorf("segment %d of the merged frame differs from the payload merged in", i)
			}
		}
		head.Free(th)
		if s := a.Stats(); s.Frees != s.CacheHits+s.CacheMisses {
			t.Errorf("%d buffers allocated, %d freed", s.CacheHits+s.CacheMisses, s.Frees)
		}
	})
}

// FuzzMergeUDP: fuzzMerge over datagrams of one flow; the UDP length
// covers the merged payload.
func FuzzMergeUDP(f *testing.F) {
	f.Add([]byte("stamp"), uint16(1024), uint8(7), uint16(8000), false)
	f.Add([]byte{0}, uint16(1), uint8(3), uint16(2), true)
	f.Add([]byte("an odd-length payload"), uint16(20), uint8(5), uint16(50), true)
	f.Add([]byte("refused"), uint16(1023), uint8(3), uint16(900), true) // a 2 KB buffer: the first donor does not fit
	f.Add([]byte{0xff, 0xff}, uint16(2), uint8(2), uint16(0), true)
	f.Add([]byte("exact"), uint16(1001), uint8(3), uint16(0), false) // a 2 KB buffer whose tailroom is exactly one donor
	f.Fuzz(func(t *testing.T, seed []byte, payloadLen uint16, runLen uint8, room uint16, checksummed bool) {
		fuzzMerge(t, mergeCase{
			name: "UDP", proto: ip.ProtoUDP, hdr: udpFrameHdr, ckOff: offUDP + 6, merge: MergeUDP,
			template: func(_, n int) []byte {
				return udpTemplate(n, HostPeer, HostLocal, PeerPort(3), LocalPort(3))
			},
			check: func(t *testing.T, b []byte, _, _ int) {
				if got := int(binary.BigEndian.Uint16(b[offUDP+4:])); got != len(b)-offUDP {
					t.Errorf("merged frame: UDP length %d, want %d", got, len(b)-offUDP)
				}
			},
		}, seed, payloadLen, runLen, room, checksummed)
	})
}

// FuzzMergeTCP: fuzzMerge over contiguous segments of one connection
// starting anywhere in the sequence space; the head keeps its sequence
// number over one fatter segment.
func FuzzMergeTCP(f *testing.F) {
	f.Add([]byte("stamp"), uint16(1024), uint8(7), uint16(8000), uint32(1), false)
	f.Add([]byte{0}, uint16(1), uint8(3), uint16(2), uint32(0), true)
	f.Add([]byte("an odd-length payload"), uint16(20), uint8(5), uint16(50), uint32(0xfffffff0), true) // the run wraps the sequence space
	f.Add([]byte("refused"), uint16(1023), uint8(3), uint16(900), uint32(7), true)                     // a 2 KB buffer: the first donor does not fit
	f.Add([]byte{0xff, 0xff}, uint16(2), uint8(2), uint16(0), uint32(1994), true)
	f.Add([]byte("exact"), uint16(995), uint8(3), uint16(0), uint32(3), false) // a 2 KB buffer whose tailroom is exactly one donor
	f.Fuzz(func(t *testing.T, seed []byte, payloadLen uint16, runLen uint8, room uint16, seq0 uint32, checksummed bool) {
		fuzzMerge(t, mergeCase{
			name: "TCP", proto: ip.ProtoTCP, hdr: tcpFrameHdr, ckOff: offTCP + 18, merge: MergeTCP,
			template: func(i, n int) []byte {
				fr := tcpTemplate(n, HostPeer, HostLocal, PeerPort(3), LocalPort(3), 1<<20)
				patchTCPSeq(fr, seq0+uint32(i*n))
				return fr
			},
			check: func(t *testing.T, b []byte, merged, n int) {
				if s, ok := parseFrameTCP(b); !ok || s.Seq != seq0 || s.DLen != merged*n {
					t.Errorf("merged frame parses as %+v (ok %v), want seq %d carrying %d bytes", s, ok, seq0, merged*n)
				}
			},
		}, seed, payloadLen, runLen, room, checksummed)
	})
}
