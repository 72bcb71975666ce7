package ip

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
)

// TestFragmentationInvariantRandomSizes: IP never fragments. For random
// MTUs and payload sizes on both sides of the MTU, a datagram that fits
// goes out whole (flags/offset zero) and arrives intact, and one that
// does not is refused with ErrTooBig and freed, never split.
func TestFragmentationInvariantRandomSizes(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			e := sim.New(cost.NewModel(cost.Challenge100), uint64(500+trial))
			e.Spawn("test", 0, func(th *sim.Thread) {
				rng := sim.NewRand(uint64(31 + trial*7))
				alloc := msg.NewAllocator(msg.DefaultConfig(4))
				mtu := 60 + rng.Intn(640)
				var loop loopLower
				low := LowerFDDI(mtu, func(*sim.Thread, xkernel.MAC, uint16) (xkernel.Session, error) {
					return &loop, nil
				})
				p := New(Config{Local: hostA}, low)
				loop.p = p
				up := newSink()
				if err := p.OpenEnable(th, ProtoUDP, up); err != nil {
					t.Error(err)
					return
				}
				s, err := p.Open(th, hostA, ProtoUDP)
				if err != nil {
					t.Error(err)
					return
				}
				sent := 0
				for i := 0; i < 8; i++ {
					size := 1 + rng.Intn(2*mtu)
					m, err := alloc.New(th, size, msg.Headroom)
					if err != nil {
						t.Error(err)
						return
					}
					want := make([]byte, size)
					for j := range want {
						want[j] = byte(rng.Intn(256))
					}
					if err := m.CopyIn(th, 0, want); err != nil {
						t.Error(err)
						return
					}
					err = s.Push(th, m)
					if size+HdrLen > mtu {
						if err != ErrTooBig {
							t.Errorf("mtu=%d size=%d: Push returned %v, want ErrTooBig", mtu, size, err)
						}
						continue
					}
					if err != nil {
						t.Errorf("mtu=%d size=%d: %v", mtu, size, err)
						return
					}
					sent++
					if len(up.msgs) != sent {
						t.Errorf("mtu=%d size=%d: %d datagrams delivered, want %d", mtu, size, len(up.msgs), sent)
						return
					}
					if got := up.msgs[sent-1].Bytes(); string(got) != string(want) {
						t.Errorf("mtu=%d size=%d: payload differs (%d bytes arrived)", mtu, size, len(got))
					}
				}
				for i, f := range loop.flagsOff {
					if f != 0 {
						t.Errorf("mtu=%d: datagram %d went out with flags/offset %#04x", mtu, i, f)
					}
				}
				if st := p.Stats(); st.Sent != int64(sent) || st.Received != int64(sent) || st.FragsDropped != 0 {
					t.Errorf("mtu=%d: %d accepted, stats %+v", mtu, sent, st)
				}
				for _, m := range up.msgs {
					m.Free(th)
				}
				if !balanced(alloc) {
					t.Errorf("mtu=%d: allocator unbalanced: %+v", mtu, alloc.Stats())
				}
			})
			e.Run()
		})
	}
}
