package core

// The workload. Section 2.3's four set-ups, UDP and TCP each on the send
// and the receive side, plus steered UDP receive are the five shapes.
// Build chooses one from Proto, Side and Steer.Enabled (newShape, the
// one place that reads them past validation); everything after calls
// what it chose.

import (
	"errors"
	"fmt"

	"repro/internal/app"
	"repro/internal/driver"
	"repro/internal/ip"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/steer"
	"repro/internal/tcp"
	"repro/internal/udp"
	"repro/internal/xkernel"
)

// peer is the simulated driver under FDDI (Section 2.3): the wire the
// stack transmits on, injecting up into the layer SetUpper names.
type peer interface {
	xkernel.Wire
	SetUpper(xkernel.Demuxer)
}

// pumper is one packet-level pump iteration on connection conn: produce
// and carry one batch (a packet, unbatched) through the stack on the
// calling thread. It returns the wire segments moved, and false when
// stop ended it before anything was produced; an error comes with true.
type pumper interface {
	PumpBatch(t *sim.Thread, conn int, stop *sim.Flag, bc msg.BatchConfig) (int, bool, error)
}

// shape is the workload Build chose, and all that follows from it.
type shape struct {
	peer peer
	// counter is the throughput measurement point behind Stack.Bytes:
	// what the driver consumed (send side) or the application received.
	counter interface{ Bytes() int64 }
	// pump is the step of the packet-level pumps runPumps starts.
	pump pumper
	// setup opens the transport's sessions or TCBs and completes the
	// handshakes, on the control thread; run starts the threads that
	// move packets. Each takes its stack, so a method expression serves
	// where nothing else is captured.
	setup func(s *Stack, t *sim.Thread) error
	run   func(s *Stack, t *sim.Thread)
	// snapshot reads the ordering and lock-wait counters Run takes the
	// measurement interval's differences of.
	snapshot func(s *Stack) snap
	// teardown stops what set-up started, before the queues drain.
	teardown func(s *Stack, t *sim.Thread)
	// check compares, once the engine has returned, what the transport
	// accepted with what the application got (nil: nothing to compare).
	check func(s *Stack) error

	tcbs   []*tcp.TCB   // the TCP connections
	queues []*sim.Queue // every handoff queue built, drained at teardown
}

// newShape builds the driver peer, the transport and the application of
// the configured workload.
func (s *Stack) newShape() shape {
	cfg := &s.Cfg
	sh := shape{run: (*Stack).runPumps, snapshot: (*Stack).tcbSnapshot, teardown: func(*Stack, *sim.Thread) {}}
	switch {
	case cfg.Steer.Enabled: // steered udp-recv
		src := driver.NewUDPSource(s.Alloc, cfg.PacketSize, cfg.Connections)
		s.newUDP()
		s.buildSteer()
		sh.peer, sh.counter, sh.queues, sh.snapshot = src, s.Sink, s.steerQs, (*Stack).steerSnapshot
		sh.setup = func(s *Stack, t *sim.Thread) error { return s.setupUDP(t, s.Sink, nil) }
		sh.run = func(s *Stack, _ *sim.Thread) { s.runSteer(src) }
	case cfg.Proto == ProtoUDP && cfg.Side == SideSend: // udp-send
		sink := driver.NewUDPSink()
		s.newUDP()
		send := &sendPump{src: app.NewSource(s.Alloc, cfg.PacketSize)}
		sh.peer, sh.counter, sh.pump = sink, sink, send
		sh.setup = func(s *Stack, t *sim.Thread) error { return s.setupUDP(t, nil, send) }
	case cfg.Proto == ProtoUDP: // udp-recv
		src := driver.NewUDPSource(s.Alloc, cfg.PacketSize, cfg.Connections)
		s.newUDP()
		s.Sink = app.NewSink(cfg.Connections)
		sh.peer, sh.counter, sh.pump = src, s.Sink, src
		sh.setup = func(s *Stack, t *sim.Thread) error { return s.setupUDP(t, s.Sink, nil) }
	case cfg.Side == SideSend: // tcp-send
		r := driver.NewSimTCPReceiver(s.Alloc, cfg.Connections)
		if cfg.AckEvery > 0 {
			r.AckEvery = cfg.AckEvery
		}
		r.Strict = cfg.Faults.Enabled() // over a lossy wire, ack exactly what arrived
		s.newTCP()
		send := &sendPump{src: app.NewSource(s.Alloc, cfg.PacketSize)}
		sh.peer, sh.counter, sh.pump, sh.tcbs = r, r, send, make([]*tcp.TCB, 0, cfg.Connections)
		sh.setup = func(s *Stack, t *sim.Thread) error {
			// Each active open's handshake completes through r.
			if err := s.setupTCP(t, s.TCP.Open, nil); err != nil {
				return err
			}
			for _, tcb := range s.sh.tcbs {
				send.conns = append(send.conns, tcb)
			}
			r.StartAckFlush(t, s.Wheel)
			return nil
		}
		sh.snapshot = func(s *Stack) snap {
			sn := s.tcbSnapshot()
			sn.wireOOO, sn.wireSegs = r.WireOrder()
			return sn
		}
		sh.teardown = func(s *Stack, t *sim.Thread) {
			s.closeTCP(t)
			r.StopAckFlush()
		}
	default: // tcp-recv
		d := driver.NewSimTCPSender(s.Alloc, cfg.PacketSize, cfg.Connections)
		d.FaultRecovery = cfg.Faults.Enabled() // over a lossy wire, retransmit on dup-acks and timeouts
		s.newTCP()
		s.Sink = app.NewSink(cfg.Connections)
		sh.peer, sh.counter, sh.pump, sh.tcbs = d, s.Sink, d, make([]*tcp.TCB, 0, cfg.Connections)
		sh.setup = func(s *Stack, t *sim.Thread) error { return s.setupTCPRecv(t, d) }
		sh.teardown, sh.check = (*Stack).closeTCP, (*Stack).checkDelivered
		switch cfg.Strategy {
		case StrategyConnection:
			sh.run = func(s *Stack, _ *sim.Thread) { s.runConnectionLevel(d) }
		case StrategyLayered:
			sh.run = func(*Stack, *sim.Thread) {} // the stages start in set-up: the handshake needs them
		}
	}
	return sh
}

// newUDP and newTCP build the transport over IP.
func (s *Stack) newUDP() {
	cfg := &s.Cfg
	s.UDP = udp.New(udp.Config{
		Checksum:   udp.ChecksumMode(checksumMode(cfg)),
		RefMode:    cfg.RefMode,
		MapLocking: cfg.MapLocking,
		MapNoCache: !cfg.MapCache,
		Buckets:    demuxBuckets(cfg),
	}, udpOpener{s.IP})
}

func (s *Stack) newTCP() {
	cfg := &s.Cfg
	s.TCP = tcp.New(tcp.Config{
		Layout:             cfg.Layout,
		Kind:               cfg.LockKind,
		Checksum:           tcp.ChecksumMode(checksumMode(cfg)),
		RefMode:            cfg.RefMode,
		MapLocking:         cfg.MapLocking,
		MapNoCache:         !cfg.MapCache,
		AssumeInOrder:      cfg.AssumeInOrder,
		Ticketing:          cfg.Ticketing,
		NoHeaderPrediction: cfg.NoHeaderPrediction,
		AckEvery:           cfg.AckEvery,
		Buckets:            demuxBuckets(cfg),
	}, tcpOpener{s.IP}, s.Alloc, s.Wheel)
}

// checksumMode is the transports' checksum mode: off, compute (the
// drivers do not checksum; receivers verify and ignore) or, with the
// fault wire in, enforce (verify and drop on mismatch).
func checksumMode(cfg *Config) int {
	switch {
	case !cfg.Checksum:
		return 0
	case cfg.Faults.Enabled():
		return 2
	default:
		return 1
	}
}

// connPart is connection i's participants.
func connPart(i int) xkernel.Part {
	return xkernel.Part{
		LocalIP: driver.HostLocal, RemoteIP: driver.HostPeer,
		LocalPort: driver.LocalPort(i), RemotePort: driver.PeerPort(i),
	}
}

// bind binds ipUp (IP, or a stage shim) over FDDI and up (the transport,
// or a stage shim) over IP as proto.
func (s *Stack) bind(t *sim.Thread, ipUp xkernel.Upper, proto uint8, up xkernel.Upper) error {
	if err := s.FDDI.OpenEnable(t, ip.EtherType, ipUp); err != nil {
		return err
	}
	return s.IP.OpenEnable(t, proto, up)
}

// setupUDP opens every connection's session, delivering to up. Only a
// send pump pushes down the sessions, so only send keeps them.
func (s *Stack) setupUDP(t *sim.Thread, up xkernel.Receiver, send *sendPump) error {
	if err := s.bind(t, s.IP, ip.ProtoUDP, s.UDP); err != nil {
		return err
	}
	for i := 0; i < s.Cfg.Connections; i++ {
		sess, err := s.UDP.Open(t, connPart(i), up)
		if err != nil {
			return err
		}
		if send != nil {
			send.conns = append(send.conns, sess)
		}
	}
	return nil
}

// setupTCP binds TCP over IP over FDDI, across the stage queues when
// layered, starts its timers and opens every connection with open,
// delivering to up.
func (s *Stack) setupTCP(t *sim.Thread, open func(*sim.Thread, xkernel.Part, xkernel.Receiver) (*tcp.TCB, error), up xkernel.Receiver) error {
	ipUp, tcpUp := xkernel.Upper(s.IP), xkernel.Upper(s.TCP)
	if s.Cfg.Strategy == StrategyLayered {
		ipUp, tcpUp, up = s.layerShims(ipUp, tcpUp, up)
	}
	if err := s.bind(t, ipUp, ip.ProtoTCP, tcpUp); err != nil {
		return err
	}
	s.TCP.StartTimers(t)
	for i := 0; i < s.Cfg.Connections; i++ {
		tcb, err := open(t, connPart(i), up)
		if err != nil {
			return err
		}
		s.sh.tcbs = append(s.sh.tcbs, tcb)
	}
	return nil
}

// setupTCPRecv listens on every connection and has the peer d open it.
func (s *Stack) setupTCPRecv(t *sim.Thread, d *driver.SimTCPSender) error {
	cfg := &s.Cfg
	if err := s.setupTCP(t, s.TCP.OpenEnable, s.Sink); err != nil {
		return err
	}
	if cfg.Ticketing {
		s.Sink.Seq = s.sh.tcbs[0].Sequencer()
	}
	if cfg.Strategy == StrategyLayered {
		// Stage threads must be running before the handshake: the SYN
		// parks on a stage queue.
		s.runLayered(d)
	}
	for i := 0; i < cfg.Connections; i++ {
		if err := d.Start(t, i); err != nil {
			return err
		}
	}
	deadline := t.Now() + 5_000_000_000
	for i := 0; i < cfg.Connections; i++ {
		for !d.Established(i) {
			if t.Now() > deadline {
				return fmt.Errorf("core: handshake for connection %d timed out", i)
			}
			t.Sleep(1_000_000)
		}
	}
	return nil
}

// closeTCP stops TCP's timers and aborts every connection.
func (s *Stack) closeTCP(t *sim.Thread) {
	s.TCP.StopTimers()
	for _, tcb := range s.sh.tcbs {
		tcb.Abort(t)
	}
}

// pusher is a send-side session or TCB: udp.Session and tcp.TCB alike.
type pusher interface {
	Push(t *sim.Thread, m *msg.Message) error
}

// sendPump is the send shapes' pump step: the application's next message
// pushed down connection conn, then the explicit per-packet yield
// (Section 3).
type sendPump struct {
	src   *app.Source
	conns []pusher
}

func (p *sendPump) PumpBatch(t *sim.Thread, conn int, _ *sim.Flag, _ msg.BatchConfig) (int, bool, error) {
	m, err := p.src.Next(t)
	if err == nil {
		err = p.conns[conn].Push(t, m)
	}
	if !errors.Is(err, tcp.ErrClosed) { // aborted at teardown: the pump ends here
		t.Yield()
	}
	return 1, true, err
}

// snap is one reading of the counters Run differences over the
// measurement interval.
type snap struct {
	data, ooo         int64 // data segments at TCP (steered: datagrams at the sink), and those out of order
	wireOOO, wireSegs int64 // send side: segments misordered below TCP, of all
	lockWait          int64 // connection-state lock wait (steered: the Flow-Director buckets')

	// Steered only: per-processor deliveries, steering statistics, ring
	// drops and sink evictions.
	perProc    []int64
	stats      steer.Stats
	drops      int64
	sinkEvicts int64
}

// tcbSnapshot sums the TCP connections' ordering and state-lock
// counters: zero on the UDP shapes, which have none.
func (s *Stack) tcbSnapshot() snap {
	var sn snap
	for _, tcb := range s.sh.tcbs {
		o, d := tcb.OOOStats()
		sn.ooo += o
		sn.data += d
		sn.lockWait += tcb.StateLockStats().WaitNs
	}
	return sn
}

// checkDelivered is the TCP receive shape's check: every segment each
// connection took in order reached the application exactly once, or was
// folded into lost at teardown. The tallies compare count and
// fingerprint, never order: unticketed deliveries leave the state lock
// in any order (the sink checks ticketed order as it delivers).
// Assumed-in-order TCP (Figure 10's bound) takes whatever arrives as the
// next segment, so under it only the count is compared.
func (s *Stack) checkDelivered() error {
	size := int64(s.Cfg.PacketSize)
	var want app.Tally
	for c, tcb := range s.sh.tcbs {
		n := tcb.InOrderBytes()
		if n%size != 0 {
			return fmt.Errorf("core: connection %d took %d bytes in order, not whole %d-byte segments", c, n, size)
		}
		want.Stream(c, n/size)
	}
	got := s.Sink.Delivered()
	got.Segs += s.lost.Segs
	got.Sum += s.lost.Sum
	if got.Segs != want.Segs {
		return fmt.Errorf("core: TCP took %d segments in order and the application got %d", want.Segs, got.Segs)
	}
	if got.Sum != want.Sum && !s.Cfg.AssumeInOrder {
		return fmt.Errorf("core: the application got %d segments, but not each one TCP took in order exactly once (fingerprint %#x, want %#x)",
			got.Segs, got.Sum, want.Sum)
	}
	return nil
}
