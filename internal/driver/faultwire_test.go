package driver

import (
	"bytes"
	"testing"

	"repro/internal/chksum"
	"repro/internal/ip"
	"repro/internal/msg"
	"repro/internal/sim"
)

// captureWire records frames a FaultWire forwards downward.
type captureWire struct {
	frames [][]byte
}

func (c *captureWire) TX(t *sim.Thread, m *msg.Message) error {
	c.frames = append(c.frames, append([]byte{}, m.Bytes()...))
	m.Free(t)
	return nil
}

// txFrame pushes one TCP data frame through the wire's outbound path.
func txFrame(t *testing.T, th *sim.Thread, a *msg.Allocator, fw *FaultWire, seq uint32) {
	t.Helper()
	f := tcpTemplate(256, HostLocal, HostPeer, LocalPort(0), PeerPort(0), 1<<20)
	patchTCPSeq(f, seq)
	m, err := a.New(th, len(f), 0)
	if err != nil {
		t.Fatal(err)
	}
	m.CopyTemplate(0, f)
	if err := fw.TX(th, m); err != nil {
		t.Fatal(err)
	}
}

func TestFaultWirePassThroughUntilArmed(t *testing.T) {
	run(t, 20, func(th *sim.Thread) {
		a := newAlloc()
		down := &captureWire{}
		fw := NewFaultWire(FaultConfig{
			Down: FaultRates{Drop: 1.0}, // would drop everything if armed
		}, 1, a, down)
		for i := 0; i < 5; i++ {
			txFrame(t, th, a, fw, uint32(1+i*256))
		}
		if len(down.frames) != 5 {
			t.Fatalf("unarmed wire forwarded %d of 5 frames", len(down.frames))
		}
		if s := fw.Stats(); s != (FaultStats{}) {
			t.Errorf("unarmed wire counted faults: %+v", s)
		}
	})
}

func TestFaultWireZeroConfigDisabled(t *testing.T) {
	if (FaultConfig{}).Enabled() {
		t.Fatal("zero FaultConfig must report disabled")
	}
	if !(FaultConfig{Up: FaultRates{Drop: 0.01}}).Enabled() {
		t.Fatal("nonzero drop rate must report enabled")
	}
}

func TestFaultWireDropsEverythingAtRateOne(t *testing.T) {
	run(t, 21, func(th *sim.Thread) {
		a := newAlloc()
		down := &captureWire{}
		fw := NewFaultWire(FaultConfig{Down: FaultRates{Drop: 1.0}}, 2, a, down)
		fw.Arm()
		for i := 0; i < 8; i++ {
			txFrame(t, th, a, fw, uint32(1+i*256))
		}
		if len(down.frames) != 0 {
			t.Fatalf("forwarded %d frames at drop rate 1.0", len(down.frames))
		}
		s := fw.Stats().Down
		if s.Frames != 8 || s.Dropped != 8 {
			t.Fatalf("stats = %+v, want 8/8 dropped", s)
		}
		// All dropped frames must return to the allocator.
		st := a.Stats()
		if st.CacheHits+st.ArenaAllocs != st.Frees {
			t.Errorf("allocator unbalanced: %d allocs, %d frees",
				st.CacheHits+st.ArenaAllocs, st.Frees)
		}
	})
}

func TestFaultWireDuplicatesAndReorders(t *testing.T) {
	run(t, 22, func(th *sim.Thread) {
		a := newAlloc()
		down := &captureWire{}
		fw := NewFaultWire(FaultConfig{Down: FaultRates{Dup: 1.0}}, 3, a, down)
		fw.Arm()
		txFrame(t, th, a, fw, 1)
		if len(down.frames) != 2 {
			t.Fatalf("dup rate 1.0 forwarded %d copies, want 2", len(down.frames))
		}
		if !bytes.Equal(down.frames[0], down.frames[1]) {
			t.Error("duplicate differs from original")
		}

		down2 := &captureWire{}
		fw2 := NewFaultWire(FaultConfig{Down: FaultRates{Reorder: 1.0}}, 3, a, down2)
		fw2.Arm()
		txFrame(t, th, a, fw2, 1)
		if len(down2.frames) != 0 {
			t.Fatal("first frame should be parked in the reorder slot")
		}
		txFrame(t, th, a, fw2, 257)
		if len(down2.frames) != 2 {
			t.Fatalf("second frame should release the pair, got %d", len(down2.frames))
		}
		// The pair swapped: the later sequence number lands first.
		s1, _ := parseFrameTCP(down2.frames[0])
		s2, _ := parseFrameTCP(down2.frames[1])
		if s1.Seq != 257 || s2.Seq != 1 {
			t.Errorf("wire order %d, %d; want 257, 1", s1.Seq, s2.Seq)
		}
		fw2.Shutdown(th)
	})
}

// TestFaultWireShutdownFreesHeldFrames: at teardown a frame may sit in
// either reorder slot, waiting for a successor that will never come;
// Shutdown frees both, and a second Shutdown finds nothing to free.
func TestFaultWireShutdownFreesHeldFrames(t *testing.T) {
	run(t, 24, func(th *sim.Thread) {
		a := newAlloc()
		down, up := &captureWire{}, newCapture()
		fw := NewFaultWire(FaultConfig{Up: FaultRates{Reorder: 1.0}, Down: FaultRates{Reorder: 1.0}}, 4, a, down)
		fw.SetUpper(up)
		fw.Arm()
		txFrame(t, th, a, fw, 1)
		f := tcpTemplate(256, HostPeer, HostLocal, PeerPort(0), LocalPort(0), 1<<20)
		m, err := a.New(th, len(f), 0)
		if err != nil {
			t.Fatal(err)
		}
		m.CopyTemplate(0, f)
		if err := fw.Demux(th, m); err != nil {
			t.Fatal(err)
		}
		if fw.heldUp == nil || fw.heldDown == nil || len(down.frames)+len(up.frames) != 0 {
			t.Fatalf("held up %v, down %v, forwarded %d down and %d up; want one frame parked each way",
				fw.heldUp != nil, fw.heldDown != nil, len(down.frames), len(up.frames))
		}
		for i := 0; i < 2; i++ {
			fw.Shutdown(th)
			if fw.heldUp != nil || fw.heldDown != nil {
				t.Fatal("Shutdown left a frame in a reorder slot")
			}
			if st := a.Stats(); st.CacheHits+st.ArenaAllocs != st.Frees {
				t.Errorf("after Shutdown %d: %d allocs, %d frees", i+1, st.CacheHits+st.ArenaAllocs, st.Frees)
			}
		}
	})
}

func TestFaultWireCorruptionBreaksChecksumOnly(t *testing.T) {
	run(t, 23, func(th *sim.Thread) {
		a := newAlloc()
		down := &captureWire{}
		fw := NewFaultWire(FaultConfig{Down: FaultRates{Corrupt: 1.0}}, 4, a, down)
		fw.Arm()
		txFrame(t, th, a, fw, 1)
		if len(down.frames) != 1 {
			t.Fatalf("corrupted frame must still be forwarded, got %d", len(down.frames))
		}
		f := down.frames[0]
		// The checksum field is stamped nonzero (zero means "sender did
		// not checksum" and would read as valid)...
		if f[offTCP+18] == 0 && f[offTCP+19] == 0 {
			t.Fatal("corrupted frame carries a zero checksum")
		}
		// ...and does not verify against the damaged payload.
		if chksum.Verify(HostLocal, HostPeer, ip.ProtoTCP, f[offTCP:]) {
			t.Error("corrupted frame still verifies")
		}
		// Demux-relevant fields stay intact so the frame reaches the
		// transport's checksum path rather than vanishing at a map lookup.
		sg, ok := parseFrameTCP(f)
		if !ok || sg.SPort != LocalPort(0) || sg.DPort != PeerPort(0) {
			t.Error("corruption damaged the ports")
		}
	})
}

func TestFaultWireScheduleIsDeterministic(t *testing.T) {
	schedule := func() (FaultStats, [][]byte) {
		var stats FaultStats
		var frames [][]byte
		run(t, 24, func(th *sim.Thread) {
			a := newAlloc()
			down := &captureWire{}
			fw := NewFaultWire(FaultConfig{
				Down: FaultRates{Drop: 0.2, Dup: 0.2, Corrupt: 0.2, Reorder: 0.2},
			}, 99, a, down)
			fw.Arm()
			for i := 0; i < 200; i++ {
				txFrame(t, th, a, fw, uint32(1+i*256))
			}
			fw.Shutdown(th)
			stats = fw.Stats()
			frames = down.frames
		})
		return stats, frames
	}
	s1, f1 := schedule()
	s2, f2 := schedule()
	if s1 != s2 {
		t.Fatalf("same seed produced different counters:\n%+v\n%+v", s1, s2)
	}
	if s1.Down.Dropped == 0 || s1.Down.Duplicated == 0 || s1.Down.Corrupted == 0 ||
		s1.Down.Reordered == 0 {
		t.Fatalf("200 frames at 20%% rates left a fault class untouched: %+v", s1.Down)
	}
	if len(f1) != len(f2) {
		t.Fatalf("same seed forwarded %d vs %d frames", len(f1), len(f2))
	}
	for i := range f1 {
		if !bytes.Equal(f1[i], f2[i]) {
			t.Fatalf("frame %d differs between same-seed runs", i)
		}
	}
}
