// Package xkernel defines the protocol-graph plumbing shared by all
// layers: addresses, the interfaces protocols and sessions implement,
// and the per-layer reference counting that the x-kernel performs on the
// fast path of data transfer (Section 5.2 of the paper: refcounts are
// incremented on the way up the stack and decremented on the way down,
// two atomic operations per layer per packet).
package xkernel

import (
	"repro/internal/msg"
	"repro/internal/sim"
)

// IPAddr is a 4-byte internet address.
type IPAddr [4]byte

// MAC is a 6-byte media access control address.
type MAC [6]byte

// Part names the participants of a session (the x-kernel "participant
// list"): the local and remote addresses and ports.
type Part struct {
	LocalIP    IPAddr
	RemoteIP   IPAddr
	LocalPort  uint16
	RemotePort uint16
}

// Swap returns the participants seen from the other end.
func (p Part) Swap() Part {
	return Part{
		LocalIP:    p.RemoteIP,
		RemoteIP:   p.LocalIP,
		LocalPort:  p.RemotePort,
		RemotePort: p.LocalPort,
	}
}

// Session is an open channel able to send messages down the stack
// (xPush).
type Session interface {
	Push(t *sim.Thread, m *msg.Message) error
	Close(t *sim.Thread) error
}

// Demuxer takes packets coming off the wire (xDemux). The device driver
// hands frames to the MAC layer above it through one.
type Demuxer interface {
	Demux(t *sim.Thread, m *msg.Message) error
}

// Upper is a protocol as seen from the protocol below it, which
// manipulates the protocol's reference count around each Demux.
type Upper interface {
	Demuxer
	Ref() *sim.RefCount
}

// Receiver is an application-level sink for fully demultiplexed
// messages.
type Receiver interface {
	Receive(t *sim.Thread, m *msg.Message) error
}

// Wire is the transmit entry of the device driver below the MAC layer.
type Wire interface {
	TX(t *sim.Thread, m *msg.Message) error
}

// DispatchUp performs the fast-path reference-count discipline around an
// upward dispatch: increment on the way up, call, decrement on the way
// back down.
func DispatchUp(t *sim.Thread, up Upper, m *msg.Message) error {
	up.Ref().Incr(t)
	err := up.Demux(t, m)
	up.Ref().Decr(t)
	return err
}
