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

// FuzzMergeUDP: a run of equal-length datagrams of one flow, merged
// into its first frame, is still a frame the stack accepts — the IP
// header checks out and covers the frame, the UDP length covers the
// payload, a checksummed datagram stays validly checksummed — counts
// its segments, and splits by stride back into the payloads it was
// made from. The head's tailroom is the fuzzer's too: the first donor
// that does not fit is refused with ErrNoRoom and both frames keep
// their bytes.
func FuzzMergeUDP(f *testing.F) {
	f.Add([]byte("stamp"), uint16(1024), uint8(7), uint16(8000), false)
	f.Add([]byte{0}, uint16(1), uint8(3), uint16(2), true)
	f.Add([]byte("an odd-length payload"), uint16(20), uint8(5), uint16(50), true)
	f.Add([]byte("refused"), uint16(1023), uint8(3), uint16(900), true) // a 2 KB buffer: the first donor does not fit
	f.Add([]byte{0xff, 0xff}, uint16(2), uint8(2), uint16(0), true)
	f.Fuzz(func(t *testing.T, seed []byte, payloadLen uint16, runLen uint8, room uint16, checksummed bool) {
		if len(seed) == 0 {
			seed = []byte{0}
		}
		n := 1 + int(payloadLen)%1400
		segs := 1 + int(runLen)%8
		grow := int(room) % (msg.MaxClassBytes - udpFrameHdr - n + 1)
		payloads := make([][]byte, segs)
		for i := range payloads {
			payloads[i] = make([]byte, n)
			for j := range payloads[i] {
				payloads[i][j] = seed[(i*n+j)%len(seed)] + byte(i)
			}
		}
		frame := func(payload []byte) []byte {
			fr := udpTemplate(n, HostPeer, HostLocal, PeerPort(3), LocalPort(3))
			copy(fr[udpFrameHdr:], payload)
			if checksummed {
				ck := chksum.SumPseudo(HostPeer, HostLocal, ip.ProtoUDP, fr[offUDP:])
				if ck == 0 {
					ck = 0xffff
				}
				binary.BigEndian.PutUint16(fr[offUDP+6:], ck)
			}
			return fr
		}
		run(t, 1, func(th *sim.Thread) {
			a := newAlloc()
			produce := func(payload []byte, tail int) *msg.Message {
				fr := frame(payload)
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
			head := produce(payloads[0], grow)
			room := head.Tailroom() // grow, rounded up to the buffer class
			merged := 1
			for ; merged < segs; merged++ {
				d := produce(payloads[merged], 0)
				before := append([]byte{}, head.Bytes()...)
				fits := head.Tailroom() >= n
				err := MergeUDP(th, head, d)
				if fits {
					if err != nil {
						t.Fatalf("donor %d fits (%d bytes into %d) but MergeUDP = %v", merged, n, head.Tailroom(), err)
					}
					continue
				}
				if !errors.Is(err, msg.ErrNoRoom) {
					t.Fatalf("donor %d does not fit (%d bytes into %d) but MergeUDP = %v", merged, n, head.Tailroom(), err)
				}
				if !bytes.Equal(head.Bytes(), before) || !bytes.Equal(d.Bytes(), frame(payloads[merged])) {
					t.Fatalf("donor %d refused, but a frame changed", merged)
				}
				d.Free(th)
				break
			}
			if want := min(segs, 1+room/n); merged != want {
				t.Fatalf("%d segments merged, want %d (%d offered, %d-byte payloads, %d bytes of room)", merged, want, segs, n, room)
			}
			b := head.Bytes()
			if head.SegCount() != merged || len(b) != udpFrameHdr+merged*n {
				t.Fatalf("merged frame: SegCount %d, %d bytes; want %d and %d", head.SegCount(), len(b), merged, udpFrameHdr+merged*n)
			}
			if chksum.Sum(b[offIP:offIP+ip.HdrLen]) != 0 {
				t.Error("merged frame: IP header checksum does not verify")
			}
			if got := int(binary.BigEndian.Uint16(b[offIP+2:])); got != len(b)-offIP {
				t.Errorf("merged frame: IP total length %d, want %d", got, len(b)-offIP)
			}
			if got := int(binary.BigEndian.Uint16(b[offUDP+4:])); got != len(b)-offUDP {
				t.Errorf("merged frame: UDP length %d, want %d", got, len(b)-offUDP)
			}
			// udp.Demux's rule: a zero field is "not checksummed", anything
			// else must verify.
			if field := binary.BigEndian.Uint16(b[offUDP+6:]); checksummed != (field != 0) ||
				(checksummed && !chksum.Verify(HostPeer, HostLocal, ip.ProtoUDP, b[offUDP:])) {
				t.Errorf("merged frame: UDP checksum field %#04x does not verify (checksummed input: %v)", field, checksummed)
			}
			for i := 0; i < merged; i++ {
				if !bytes.Equal(b[udpFrameHdr+i*n:udpFrameHdr+(i+1)*n], payloads[i]) {
					t.Errorf("segment %d of the merged frame differs from the payload merged in", i)
				}
			}
			head.Free(th)
			if s := a.Stats(); s.Frees != s.CacheHits+s.CacheMisses {
				t.Errorf("%d buffers allocated, %d freed", s.CacheHits+s.CacheMisses, s.Frees)
			}
		})
	})
}
