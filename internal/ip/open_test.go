package ip

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
)

// countLower is a MAC layer that only counts: every open returns the
// one session, as the real FDDI layer does for one (MAC, type).
type countLower struct{ opens, closes int }

func (l *countLower) Push(t *sim.Thread, m *msg.Message) error { return nil }
func (l *countLower) Close(t *sim.Thread) error                { l.closes++; return nil }

// The x-kernel active-map contract: Open hands out the session already
// open for a (dst, transport protocol) with one more reference on it, a
// different participant gets a different session, every Open opens the
// MAC layer once and every Close closes it once, the last Close takes
// the session out of the table, and an Open after that builds a fresh
// one — a stale table hit handing out the dead session is the mutant
// this test is for.
func TestOpenSharesSessionsByParticipant(t *testing.T) {
	run(t, func(th *sim.Thread) {
		var low countLower
		p := New(Config{Local: hostA}, LowerFDDI(4352,
			func(*sim.Thread, xkernel.MAC, uint16) (xkernel.Session, error) {
				low.opens++
				return &low, nil
			}))
		hostB := xkernel.IPAddr{10, 0, 0, 2}
		open := func(dst xkernel.IPAddr, proto uint8) *Session {
			s, err := p.Open(th, dst, proto)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}

		const n = 5
		s := open(hostA, ProtoUDP)
		for i := 1; i < n; i++ {
			if again := open(hostA, ProtoUDP); again != s {
				t.Fatalf("Open %d of one participant returned %p, want the open session %p", i, again, s)
			}
		}
		if got := s.Ref().Value(); got != n {
			t.Errorf("%d Opens left %d references, want %d", n, got, n)
		}
		byDst, byProto := open(hostB, ProtoUDP), open(hostA, ProtoTCP)
		if byDst == s || byProto == s || byDst == byProto {
			t.Errorf("a different dst got %p and a different protocol %p; want sessions other than %p and each other", byDst, byProto, s)
		}
		if byDst.Dst() != hostB || byProto.proto != ProtoTCP {
			t.Errorf("the other participants' sessions carry dst %v and protocol %d", byDst.Dst(), byProto.proto)
		}
		if got := s.Ref().Value(); got != n {
			t.Errorf("opening other participants moved the count to %d, want %d", got, n)
		}
		if low.opens != n+2 || len(p.open) != 3 {
			t.Fatalf("%d MAC opens and %d table entries after %d Opens of 3 participants, want %d and 3",
				low.opens, len(p.open), n+2, n+2)
		}

		for i := 0; i < n; i++ {
			if len(p.open) != 3 {
				t.Fatalf("table shrank to %d before Close %d of %d", len(p.open), i, n)
			}
			if err := s.Close(th); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Ref().Value(); got != 0 || low.closes != n {
			t.Errorf("%d Closes left %d references and closed the MAC layer %d times, want 0 and %d", n, got, low.closes, n)
		}
		if len(p.open) != 2 || p.open[0] != byDst || p.open[1] != byProto {
			t.Fatalf("after the last Close the table is %v, want only the two other participants' sessions", p.open)
		}

		fresh := open(hostA, ProtoUDP)
		if fresh == s {
			t.Fatal("Open after the last Close handed out the closed session")
		}
		if got := fresh.Ref().Value(); got != 1 {
			t.Errorf("fresh session has %d references, want 1", got)
		}
		if got := s.Ref().Value(); got != 0 {
			t.Errorf("the closed session's count moved to %d", got)
		}
		if fresh.Dst() != hostA || fresh.proto != ProtoUDP || fresh.MSS() != s.MSS() {
			t.Errorf("fresh session is not the closed one's equal: dst %v protocol %d MSS %d", fresh.Dst(), fresh.proto, fresh.MSS())
		}
	})
}
