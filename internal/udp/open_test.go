package udp

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/fddi"
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/xkernel"
	"repro/internal/xmap"
)

// realLower is the real IP layer over the real FDDI layer (no wire:
// nothing here transmits), recording every session either opens.
type realLower struct {
	ip   *ip.Protocol
	ips  []*ip.Session
	macs []*fddi.Session
}

func newRealLower() *realLower {
	l := &realLower{}
	mac := fddi.New(fddi.Config{MapLocking: true}, nil)
	l.ip = ip.New(ip.Config{Local: hostA}, ip.LowerFDDI(fddi.MTU,
		func(t *sim.Thread, remote xkernel.MAC, proto uint16) (xkernel.Session, error) {
			s, err := mac.Open(t, remote, proto)
			l.macs = append(l.macs, s)
			return s, err
		}), nil, nil)
	return l
}

func (l *realLower) Open(t *sim.Thread, dst xkernel.IPAddr, proto uint8) (IPSession, error) {
	s, err := l.ip.Open(t, dst, proto)
	l.ips = append(l.ips, s)
	return s, err
}

// A second Open of a bound participant pair fails in Bind, after the IP
// and FDDI sessions below were opened — the same two the first Open
// holds, shared by participant: it must give its references back.
func TestDuplicateOpenReleasesLowerSessions(t *testing.T) {
	run(t, func(th *sim.Thread) {
		low := newRealLower()
		p := New(Config{MapLocking: true}, low)
		part := xkernel.Part{LocalIP: hostA, RemoteIP: hostB, LocalPort: 1000, RemotePort: 2000}
		if _, err := p.Open(th, part, &recvSink{}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Open(th, part, &recvSink{}); !errors.Is(err, xmap.ErrExists) {
			t.Fatalf("second Open: %v, want %v", err, xmap.ErrExists)
		}
		if len(low.ips) != 2 || len(low.macs) != 2 {
			t.Fatalf("opened %d IP and %d FDDI sessions, want 2 and 2", len(low.ips), len(low.macs))
		}
		if low.ips[0] != low.ips[1] || low.macs[0] != low.macs[1] {
			t.Fatalf("the two Opens got IP sessions %p and %p, FDDI sessions %p and %p; want one of each",
				low.ips[0], low.ips[1], low.macs[0], low.macs[1])
		}
		if ipRefs, macRefs := low.ips[0].Ref().Value(), low.macs[0].Ref().Value(); ipRefs != 1 || macRefs != 1 {
			t.Errorf("after the refused Open the IP session has %d references and the FDDI session %d, want 1 and 1",
				ipRefs, macRefs)
		}
	})
}

// The session slab and the open tables below are mutated under locks
// Open already holds (udp and fddi their own session lock, ip its
// caller's): on the host backend, goroutine-threads opening disjoint
// sessions at once must each get their own UDP session, all over the one
// IP and the one FDDI session of their common peer, each holding one
// reference per Open; -race sees a slab or table shared without the
// lock, and a share that is not atomic loses counts.
func TestConcurrentOpensOnHostBackendGetDistinctSessions(t *testing.T) {
	const threads, each = 2, 500
	e := sim.NewBackend(cost.NewModel(cost.Challenge100), 1, sim.BackendHost)
	low := newRealLower() // its recording is serialized by the lock under test
	p := New(Config{MapLocking: true}, low)
	sess := make([][]*Session, threads)
	for g := 0; g < threads; g++ {
		e.Spawn(fmt.Sprintf("open%d", g), g, func(th *sim.Thread) {
			for i := 0; i < each; i++ {
				part := xkernel.Part{LocalIP: hostA, RemoteIP: hostB,
					LocalPort: uint16(g*each + i), RemotePort: 9}
				s, err := p.Open(th, part, &recvSink{})
				if err != nil {
					t.Error(err)
					return
				}
				s.ref.Incr(th) // write the slot: a shared one is a race
				sess[g] = append(sess[g], s)
			}
		})
	}
	e.Run()

	seen := map[any]bool{}
	distinct := func(kind string, p any) {
		if seen[p] {
			t.Errorf("%s session %p handed out twice", kind, p)
		}
		seen[p] = true
	}
	n := 0
	for _, ss := range sess {
		for _, s := range ss {
			distinct("UDP", s)
			if s.lower != IPSession(low.ips[0]) {
				t.Errorf("UDP session %d runs over IP session %p, want the shared %p", n, s.lower, low.ips[0])
			}
			if got := s.ref.Value(); got != 2 {
				t.Errorf("UDP session has %d references, want 2", got)
			}
			n++
		}
	}
	if n != threads*each || len(low.ips) != n || len(low.macs) != n {
		t.Fatalf("%d UDP sessions over %d IP and %d FDDI opens, want %d each", n, len(low.ips), len(low.macs), n)
	}
	for i := range low.ips {
		if low.ips[i] != low.ips[0] || low.macs[i] != low.macs[0] {
			t.Fatalf("open %d got IP session %p and FDDI session %p, want the shared %p and %p",
				i, low.ips[i], low.macs[i], low.ips[0], low.macs[0])
		}
	}
	if ipRefs, macRefs := low.ips[0].Ref().Value(), low.macs[0].Ref().Value(); ipRefs != int32(n) || macRefs != int32(n) {
		t.Errorf("the IP session has %d references and the FDDI session %d, want %d each", ipRefs, macRefs, n)
	}
}
