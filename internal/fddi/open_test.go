package fddi

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/xkernel"
)

// The x-kernel active-map contract: Open hands out the session already
// open for a (remote MAC, type) with one more reference on it, a
// different participant gets a different session, the last Close takes
// the session out of the table, and an Open after that builds a fresh
// one — a stale table hit handing out the dead session is the mutant
// this test is for.
func TestOpenSharesSessionsByParticipant(t *testing.T) {
	run(t, func(th *sim.Thread) {
		p, _, _ := newStack(t, th)
		peer, other := xkernel.MAC{9, 9, 9, 9, 9, 9}, xkernel.MAC{9, 9, 9, 9, 9, 8}
		open := func(remote xkernel.MAC, proto uint16) *Session {
			s, err := p.Open(th, remote, proto)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}

		const n = 5
		s := open(peer, 0x0800)
		for i := 1; i < n; i++ {
			if again := open(peer, 0x0800); again != s {
				t.Fatalf("Open %d of one participant returned %p, want the open session %p", i, again, s)
			}
		}
		if got := s.Ref().Value(); got != n {
			t.Errorf("%d Opens left %d references, want %d", n, got, n)
		}
		byMAC, byType := open(other, 0x0800), open(peer, 0x0806)
		if byMAC == s || byType == s || byMAC == byType {
			t.Errorf("a different MAC got %p and a different type %p; want sessions other than %p and each other", byMAC, byType, s)
		}
		if got := s.Ref().Value(); got != n {
			t.Errorf("opening other participants moved the count to %d, want %d", got, n)
		}
		if len(p.open) != 3 {
			t.Fatalf("open table holds %d sessions, want 3", len(p.open))
		}

		for i := 0; i < n; i++ {
			if len(p.open) != 3 {
				t.Fatalf("table shrank to %d before Close %d of %d", len(p.open), i, n)
			}
			if err := s.Close(th); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Ref().Value(); got != 0 {
			t.Errorf("%d Closes left %d references, want 0", n, got)
		}
		if len(p.open) != 2 || p.open[0] != byMAC || p.open[1] != byType {
			t.Fatalf("after the last Close the table is %v, want only the two other participants' sessions", p.open)
		}

		fresh := open(peer, 0x0800)
		if fresh == s {
			t.Fatal("Open after the last Close handed out the closed session")
		}
		if got := fresh.Ref().Value(); got != 1 {
			t.Errorf("fresh session has %d references, want 1", got)
		}
		if got := s.Ref().Value(); got != 0 {
			t.Errorf("the closed session's count moved to %d", got)
		}
		if fresh.hdr != s.hdr {
			t.Errorf("fresh session's header template %x differs from the closed one's %x", fresh.hdr, s.hdr)
		}
	})
}

// Close takes the session lock, as Open does: on the host backend
// goroutine-threads opening and closing one participant at once must
// leave the count balanced and the table consistent (-race sees the
// table touched without the lock).
func TestConcurrentOpenCloseOnHostBackend(t *testing.T) {
	const threads, each = 4, 500
	e := sim.NewBackend(cost.NewModel(cost.Challenge100), 1, sim.BackendHost)
	p := New(Config{MapLocking: true}, nil)
	peer := xkernel.MAC{9, 9, 9, 9, 9, 9}
	var held [threads]*Session
	for g := 0; g < threads; g++ {
		e.Spawn("openclose", g, func(th *sim.Thread) {
			held[g], _ = p.Open(th, peer, 0x0800)
			for i := 0; i < each; i++ {
				s, err := p.Open(th, peer, 0x0800)
				if err != nil {
					t.Error(err)
					return
				}
				if err := s.Close(th); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	e.Run()
	for g := 1; g < threads; g++ {
		if held[g] != held[0] {
			t.Fatalf("thread %d holds session %p, thread 0 holds %p: a held session was replaced", g, held[g], held[0])
		}
	}
	if got := held[0].Ref().Value(); got != threads {
		t.Errorf("%d references after balanced open/close, want the %d held", got, threads)
	}
	if len(p.open) != 1 {
		t.Errorf("open table holds %d sessions, want 1", len(p.open))
	}
}
