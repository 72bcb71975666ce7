package tcp

import (
	"errors"
	"testing"

	"repro/internal/fddi"
	"repro/internal/ip"
	"repro/internal/msg"
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

// An Open or OpenEnable of a bound participant pair fails in Bind, after
// the IP and FDDI sessions below were opened — the same two the first
// OpenEnable holds, shared by participant: it must give its references
// back.
func TestDuplicateOpenReleasesLowerSessions(t *testing.T) {
	run1(t, 1, func(th *sim.Thread) {
		low := newRealLower()
		p := New(Config{MapLocking: true}, low, msg.NewAllocator(msg.DefaultConfig(1)), nil)
		part := xkernel.Part{LocalIP: hostA, RemoteIP: hostB, LocalPort: 1000, RemotePort: 2000}
		if _, err := p.OpenEnable(th, part, &recvSink{}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.OpenEnable(th, part, &recvSink{}); !errors.Is(err, xmap.ErrExists) {
			t.Fatalf("second OpenEnable: %v, want %v", err, xmap.ErrExists)
		}
		if _, err := p.Open(th, part, &recvSink{}); !errors.Is(err, xmap.ErrExists) {
			t.Fatalf("Open of a listening pair: %v, want %v", err, xmap.ErrExists)
		}
		if len(low.ips) != 3 || len(low.macs) != 3 {
			t.Fatalf("opened %d IP and %d FDDI sessions, want 3 and 3", len(low.ips), len(low.macs))
		}
		for i := range low.ips {
			if low.ips[i] != low.ips[0] || low.macs[i] != low.macs[0] {
				t.Fatalf("attempt %d got IP session %p and FDDI session %p, want the first attempt's %p and %p",
					i, low.ips[i], low.macs[i], low.ips[0], low.macs[0])
			}
		}
		if ipRefs, macRefs := low.ips[0].Ref().Value(), low.macs[0].Ref().Value(); ipRefs != 1 || macRefs != 1 {
			t.Errorf("after the refused attempts the IP session has %d references and the FDDI session %d, want 1 and 1",
				ipRefs, macRefs)
		}
	})
}
