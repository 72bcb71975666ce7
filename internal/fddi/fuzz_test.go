package fddi

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
)

// frame builds a frame of the given upper-protocol type around payload,
// laid out as Session.Push writes it.
func frame(proto uint16, payload []byte) []byte {
	b := make([]byte, HdrLen+len(payload))
	b[0] = 0x50
	copy(b[1:7], []byte{9, 9, 9, 9, 9, 9})
	copy(b[7:13], []byte{1, 2, 3, 4, 5, 6})
	binary.BigEndian.PutUint16(b[13:15], proto)
	copy(b[HdrLen:], payload)
	return b
}

// FuzzFDDIDemux feeds any byte string to Demux as an arriving frame.
// Demux must never panic; it delivers exactly when the frame holds a
// whole header whose type field names a bound upper protocol (newStack
// binds 0x0800); what it delivers is the frame less its header; and the
// message is either delivered or freed, never both and never neither,
// by the allocator's count.
func FuzzFDDIDemux(f *testing.F) {
	valid := frame(0x0800, []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:HdrLen-1])
	f.Add(valid[:HdrLen])
	f.Add(frame(0x0806, []byte("an unbound type")))
	f.Fuzz(func(t *testing.T, data []byte) {
		if max := msg.MaxClassBytes - msg.Headroom; len(data) > max {
			data = data[:max]
		}
		want := len(data) >= HdrLen && binary.BigEndian.Uint16(data[13:15]) == 0x0800
		run(t, func(th *sim.Thread) {
			p, up, a := newStack(t, th)
			m, err := a.New(th, len(data), msg.Headroom)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.CopyTemplate(0, data); err != nil {
				t.Fatal(err)
			}
			err = p.Demux(th, m)
			delivered := len(up.msgs) == 1
			if delivered != want || delivered != (err == nil) || len(up.msgs) > 1 {
				t.Fatalf("delivered %d (Demux error %v), want delivery %v", len(up.msgs), err, want)
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
			if got := up.msgs[0].Bytes(); !bytes.Equal(got, data[HdrLen:]) {
				t.Fatalf("delivered %d bytes, not the frame's %d-byte payload", len(got), len(data)-HdrLen)
			}
			up.msgs[0].Free(th)
			if s := a.Stats().Frees; s != 1 {
				t.Fatalf("after the receiver's free: %d frees", s)
			}
		})
	})
}
