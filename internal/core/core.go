// Package core is the packet-level-parallel protocol engine — the
// paper's primary subject. It assembles complete protocol stacks
// (application / TCP-or-UDP / IP / FDDI / in-memory driver) on the
// simulated multiprocessor and runs one wired protocol thread per
// virtual processor, each shepherding whole packets through the stack
// (thread-per-packet parallelism):
//
//   - Send side: every processor's thread allocates a packet, pushes it
//     down the shared (or per-processor, for multi-connection runs)
//     session, and explicitly yields, exactly as in Section 3.
//   - Receive side: every processor's thread takes the next in-order
//     packet from the simulated driver and carries it up the stack
//     through demultiplexing and protocol input processing.
//
// The Config struct exposes every structural alternative the paper
// studies: locking layout and lock kind, checksumming, packet size,
// message caching, atomic vs locked reference counts, ticketing,
// assumed-in-order processing, connection count, machine profile,
// wiring, and map locking.
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/app"
	"repro/internal/cost"
	"repro/internal/driver"
	"repro/internal/event"
	"repro/internal/fddi"
	"repro/internal/ip"
	"repro/internal/measure"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/steer"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/udp"
	"repro/internal/workload"
	"repro/internal/xkernel"
)

// Proto selects the transport under test.
type Proto int

// Transport protocols.
const (
	ProtoUDP Proto = iota
	ProtoTCP
)

var protoNames = []string{ProtoUDP: "UDP", ProtoTCP: "TCP"}

func (p Proto) String() string { return sim.EnumName(protoNames, p) }

// Set parses a transport name, in either case (flag.Value).
func (p *Proto) Set(s string) error { return sim.SetEnum(p, "transport", s, protoNames) }

// Side selects the data-transfer direction under test.
type Side int

// Test sides.
const (
	SideSend Side = iota
	SideRecv
)

var sideNames = []string{SideSend: "send", SideRecv: "recv"}

func (s Side) String() string { return sim.EnumName(sideNames, s) }

// Set parses a side name (flag.Value).
func (s *Side) Set(v string) error { return sim.SetEnum(s, "side", v, sideNames) }

// Config describes one experiment configuration.
type Config struct {
	Proto       Proto
	Side        Side
	Procs       int
	Connections int // 1 = single connection; otherwise conn = proc mod Connections
	PacketSize  int
	Checksum    bool
	// EnforceChecksum upgrades receive-side checksumming from
	// verify-and-ignore (the paper's measurement mode) to
	// verify-and-drop, so corrupted frames act as loss. Only meaningful
	// with Checksum on; the fault-injection experiments set it.
	EnforceChecksum bool
	Machine         cost.Machine
	Seed            uint64

	// Backend selects the execution substrate. The default, BackendSim,
	// is the deterministic virtual-time scheduler — the paper's
	// methodology, byte-identical across runs. BackendHost runs the same
	// stack on real goroutines with sync-based lock implementations and
	// the host monotonic clock; throughput is then measured in wall-clock
	// time and runs are nondeterministic. Host mode supports the plain
	// packet-level shapes only — Build rejects the knobs whose
	// declaration (knobs.go) carries a host reason.
	Backend sim.Backend

	// Faults configures the deterministic fault-injection wire between
	// the driver and the FDDI layer (drop/duplicate/corrupt/delay/
	// reorder, per direction). All-zero — the default — builds the
	// identical stack as before: the wire is not even inserted.
	Faults driver.FaultConfig

	// TCP structure.
	Layout             tcp.Layout
	LockKind           sim.LockKind
	AssumeInOrder      bool
	Ticketing          bool // implies an order-requiring application
	NoHeaderPrediction bool
	AckEvery           int
	// ActiveConns caps how many connections the pumps drive; the rest
	// stay established but idle — the timer-scale ladder, where idle
	// connections must cost a timer tick nothing. 0 drives all
	// connections.
	ActiveConns int

	// Infrastructure structure.
	MsgCache   bool
	RefMode    sim.RefMode
	MapLocking bool
	// MapCache keeps the map manager's 1-behind cache on (default).
	MapCache bool
	Wired    bool
	// WheelPerChain selects per-chain timing-wheel locks (default) vs a
	// single wheel lock (ablation).
	WheelPerChain bool
	// HotConnPct skews multi-connection traffic: each pump sends this
	// percentage of its packets to connection 0 instead of its own
	// (the paper calls its uniform multi-connection test "idealized";
	// this extension measures what skew costs).
	HotConnPct int
	// Strategy selects the parallelization strategy (Section 1):
	// packet-level (default), connection-level, or layered.
	Strategy Strategy
	// Batch enables receive-side GRO-style coalescing: consecutive
	// same-flow in-order segments merge into one frame before protocol
	// input, so the layers above — TCP's state lock in particular —
	// run once per batch instead of once per packet. Receive side,
	// packet-level strategy only. Disabled is a batch of one (Build
	// stores MaxSegs 1): the same pumps, merging nothing.
	Batch msg.BatchConfig
	// Steer enables the receive-side flow-steering subsystem
	// (internal/steer): a dispatcher thread steers generated arrivals
	// onto per-processor rings instead of the fixed conn==proc pump
	// wiring. UDP receive only.
	Steer steer.Config
	// Workload parameterizes the steered traffic generator and sink
	// (internal/workload). Only read when Steer.Enabled.
	Workload workload.Config

	// Trace enables the packet flight recorder (internal/trace): ring
	// buffers of per-processor events plus lock-wait, layer-residence
	// and end-to-end latency histograms. Recording is virtual-time
	// neutral — measurements are identical with tracing on or off.
	Trace bool
	// TraceDepth is the per-processor ring capacity (default
	// trace.DefaultDepth).
	TraceDepth int

	// SamplePeriodNs enables the virtual-time telemetry sampler
	// (internal/telemetry): every registered counter/gauge series is
	// snapshotted each period, and ProfileReport gains the top-N
	// lock/flow attribution section. 0 (the default) disables sampling.
	// Sampling is virtual-time neutral — measurements are identical with
	// sampling on or off.
	SamplePeriodNs int64
	// SampleDepth is the per-series sample ring capacity (default
	// telemetry.DefaultDepth).
	SampleDepth int
}

// DefaultConfig returns the paper's baseline configuration (Section 3):
// message caching on, atomic increment/decrement, single state lock
// (TCP-1) with the SGI-supplied mutex locks, wired threads, 100 MHz
// Challenge.
func DefaultConfig() Config {
	return Config{
		Proto:         ProtoUDP,
		Side:          SideSend,
		Procs:         1,
		Connections:   1,
		PacketSize:    4096,
		Checksum:      true,
		Machine:       cost.Challenge100,
		Layout:        tcp.Layout1,
		LockKind:      sim.KindMutex,
		AckEvery:      2,
		MsgCache:      true,
		RefMode:       sim.RefAtomic,
		MapLocking:    true,
		MapCache:      true,
		Wired:         true,
		WheelPerChain: true,
	}
}

// Stack is one assembled protocol stack plus its drivers and app.
type Stack struct {
	Cfg   Config
	Eng   *sim.Engine
	Wheel *event.Wheel
	Alloc *msg.Allocator
	// Rec is the flight recorder (nil unless Cfg.Trace).
	Rec *trace.Recorder
	// Tel is the telemetry sampler (nil unless Cfg.SamplePeriodNs > 0).
	Tel *telemetry.Sampler

	FDDI *fddi.Protocol
	IP   *ip.Protocol
	UDP  *udp.Protocol
	TCP  *tcp.Protocol

	Sink   *app.Sink
	Source *app.Source

	udpSess []*udp.Session
	tcbs    []*tcp.TCB

	udpSink *driver.UDPSink
	udpSrc  *driver.UDPSource
	tcpRecv *driver.SimTCPReceiver // peer for send-side tests
	tcpSend *driver.SimTCPSender   // peer for recv-side tests
	fault   *driver.FaultWire      // nil unless Cfg.Faults is enabled

	stop sim.Flag
	// runErr is the first failure of the current Run: set-up's, or the
	// one a pump or steering thread reported through fail.
	runErr error

	// Steering plumbing (steer.go); all nil unless Cfg.Steer.Enabled.
	steerSrc   *driver.SteerSource
	steerer    *steer.Steerer
	steerGen   *workload.Generator
	steerSink  *workload.Sink
	steerQs    []*sim.Queue
	steerDrops int64

	// Batching accounting (engine-serialized): merged frames injected
	// and the wire segments they carried. Zero when batching is off.
	batchFrames int64
	batchSegs   int64

	// Telemetry plumbing (telemetry.go); nil unless sampling is on.
	// telDel bundles the per-processor delivery counters with the flow
	// sketch; telFlows aliases the sketch for attribution reads.
	telDel   *telemetry.Deliveries
	telFlows *telemetry.FlowSketch

	// Alternative-strategy plumbing (strategy.go).
	handoffQs   []*sim.Queue
	q1, q2, q3  *sim.Queue
	layerGroups [][]int

	failOnce sync.Once // guards runErr in fail; last, so no field the pumps read moved for it
}

// Build assembles a stack for the configuration. No simulation runs
// yet; Run drives it.
func Build(c Config) (*Stack, error) {
	// The stack's copy is the one validation normalizes.
	s := &Stack{Cfg: c}
	cfg := &s.Cfg
	if cfg.Procs <= 0 {
		return nil, errors.New("core: Procs must be positive")
	}
	if cfg.Connections <= 0 {
		cfg.Connections = 1
	}
	if cfg.PacketSize <= 0 {
		return nil, errors.New("core: PacketSize must be positive")
	}
	if cfg.PacketSize > fddi.MTU-ip.HdrLen-tcp.HdrLen {
		return nil, fmt.Errorf("core: PacketSize %d exceeds what one FDDI frame carries", cfg.PacketSize)
	}
	if cfg.Machine.CPU <= 0 || cfg.Machine.Mem <= 0 {
		return nil, fmt.Errorf("core: Machine %q has no CPU or memory speed (start from DefaultConfig)", cfg.Machine.Name)
	}
	if err := validateKnobs(cfg); err != nil {
		return nil, err
	}
	if err := validateStrategy(cfg); err != nil {
		return nil, err
	}
	if err := validateSteer(cfg); err != nil {
		return nil, err
	}
	if err := validateBatch(cfg); err != nil {
		return nil, err
	}
	s.Eng = sim.NewBackend(cost.NewModel(cfg.Machine), cfg.Seed+1, cfg.Backend)
	if cfg.Trace {
		// procs+2 tracks: pumps plus the control and event threads.
		s.Rec = trace.New(cfg.Procs+2, cfg.TraceDepth)
		s.Eng.Rec = s.Rec
	}

	wcfg := event.DefaultConfig()
	wcfg.PerChain = cfg.WheelPerChain
	s.Wheel = event.New(wcfg)

	mcfg := msg.Config{
		CacheEnabled: cfg.MsgCache,
		RefMode:      cfg.RefMode,
		MaxProcs:     cfg.Procs + 2, // pumps + control + event threads
		CacheDepth:   256,
	}
	s.Alloc = msg.NewAllocator(mcfg)

	// Driver (bottom) first, then MAC, IP, transport.
	var wire xkernel.Wire
	switch {
	case cfg.Proto == ProtoUDP && cfg.Side == SideSend:
		s.udpSink = driver.NewUDPSink()
		wire = s.udpSink
	case cfg.Proto == ProtoUDP && cfg.Side == SideRecv && cfg.Steer.Enabled:
		s.steerSrc = driver.NewSteerSource(s.Alloc, cfg.PacketSize, cfg.Connections)
		wire = s.steerSrc
	case cfg.Proto == ProtoUDP && cfg.Side == SideRecv:
		s.udpSrc = driver.NewUDPSource(s.Alloc, cfg.PacketSize, cfg.Connections)
		wire = s.udpSrc
	case cfg.Proto == ProtoTCP && cfg.Side == SideSend:
		s.tcpRecv = driver.NewSimTCPReceiver(s.Alloc, cfg.Connections)
		if cfg.AckEvery > 0 {
			s.tcpRecv.AckEvery = cfg.AckEvery
		}
		wire = s.tcpRecv
	default:
		s.tcpSend = driver.NewSimTCPSender(s.Alloc, cfg.PacketSize, cfg.Connections)
		wire = s.tcpSend
	}

	if cfg.Faults.Enabled() {
		fcfg := cfg.Faults
		if fcfg.Seed == 0 {
			// Derive from the engine seed so Measure's per-run seeds
			// vary the schedule while any single config stays
			// bit-reproducible.
			fcfg.Seed = cfg.Seed ^ 0x9E3779B97F4A7C15
		}
		s.fault = driver.NewFaultWire(fcfg, s.Alloc, wire)
		wire = s.fault
		// The driver peers must behave like real endpoints once frames
		// can be lost: exact cumulative acks on the receive peer, and
		// dup-ack/timeout retransmission on the send peer.
		if s.tcpRecv != nil {
			s.tcpRecv.Strict = true
		}
		if s.tcpSend != nil {
			s.tcpSend.FaultRecovery = true
		}
	}

	s.FDDI = fddi.New(fddi.Config{
		Self:       xkernel.MAC{0xA, 0, 0, 0, 0, 1},
		RefMode:    cfg.RefMode,
		MapLocking: cfg.MapLocking,
		MapNoCache: !cfg.MapCache,
	}, wire)
	upper := xkernel.Upper(s.FDDI)
	if s.fault != nil {
		s.fault.SetUpper(s.FDDI)
		upper = s.fault
	}
	switch {
	case s.steerSrc != nil:
		s.steerSrc.SetUpper(upper)
	case s.udpSrc != nil:
		s.udpSrc.SetUpper(upper)
	case s.tcpRecv != nil:
		s.tcpRecv.SetUpper(upper)
	case s.tcpSend != nil:
		s.tcpSend.SetUpper(upper)
	}

	low := ip.LowerFDDI(fddi.MTU, func(t *sim.Thread, remote xkernel.MAC, proto uint16) (xkernel.Session, error) {
		return s.FDDI.Open(t, remote, proto)
	})
	s.IP = ip.New(ip.Config{Local: driver.HostLocal, RefMode: cfg.RefMode}, low, s.Wheel, s.Alloc)

	ck := func(on bool) int {
		switch {
		case !on:
			return 0
		case cfg.EnforceChecksum:
			return 2 // Enforce: verify and drop on mismatch
		default:
			return 1 // Compute: the drivers do not checksum, receivers verify-and-ignore
		}
	}
	switch cfg.Proto {
	case ProtoUDP:
		s.UDP = udp.New(udp.Config{
			Checksum:   udp.ChecksumMode(ck(cfg.Checksum)),
			RefMode:    cfg.RefMode,
			MapLocking: cfg.MapLocking,
			MapNoCache: !cfg.MapCache,
			Buckets:    demuxBuckets(cfg),
		}, udpOpener{s.IP})
	case ProtoTCP:
		s.TCP = tcp.New(tcp.Config{
			Layout:             cfg.Layout,
			Kind:               cfg.LockKind,
			Checksum:           tcp.ChecksumMode(ck(cfg.Checksum)),
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

	s.Source = app.NewSource(s.Alloc, cfg.PacketSize)
	if cfg.Steer.Enabled {
		s.buildSteer()
	}
	if cfg.SamplePeriodNs > 0 {
		// After buildSteer: the queue-depth gauges close over the rings.
		s.buildTelemetry()
	}
	return s, nil
}

// demuxBuckets sizes the transport demux table from the connection
// count — max(64, next power of two >= 2x Connections) — so chains stay
// short at 100k connections without growth. The floor of 64 (the
// x-kernel default) keeps every small-connection shape on the seed's
// table size.
func demuxBuckets(cfg *Config) int {
	b := 64
	for b < 2*cfg.Connections {
		b <<= 1
	}
	return b
}

// drainQueue closes q (nil: the shape built none) at teardown and frees
// the messages parked on it.
func drainQueue(t *sim.Thread, q *sim.Queue) {
	if q == nil {
		return
	}
	q.Close(t)
	for {
		item, ok := q.TryDequeue(t)
		if !ok {
			return
		}
		item.(*msg.Message).Free(t)
	}
}

// activeConns returns how many connections the pumps drive.
func activeConns(cfg *Config) int {
	if cfg.ActiveConns > 0 && cfg.ActiveConns < cfg.Connections {
		return cfg.ActiveConns
	}
	return cfg.Connections
}

// udpOpener and tcpOpener adapt *ip.Protocol to the transports'
// constructor interfaces.
type udpOpener struct{ p *ip.Protocol }

func (o udpOpener) Open(t *sim.Thread, dst xkernel.IPAddr, proto uint8) (udp.IPSession, error) {
	return o.p.Open(t, dst, proto)
}

type tcpOpener struct{ p *ip.Protocol }

func (o tcpOpener) Open(t *sim.Thread, dst xkernel.IPAddr, proto uint8) (tcp.IPSession, error) {
	return o.p.Open(t, dst, proto)
}

// setup opens sessions and completes handshakes; runs on the control
// thread.
func (s *Stack) setup(t *sim.Thread) error {
	cfg := &s.Cfg
	switch cfg.Proto {
	case ProtoUDP:
		if err := s.FDDI.OpenEnable(t, ip.EtherType, s.IP); err != nil {
			return err
		}
		if err := s.IP.OpenEnable(t, ip.ProtoUDP, s.UDP); err != nil {
			return err
		}
		var up xkernel.Receiver
		if s.steerSink != nil {
			up = s.steerSink
		} else {
			s.Sink = app.NewSink(false, nil)
			up = s.Sink
		}
		for i := 0; i < cfg.Connections; i++ {
			part := xkernel.Part{
				LocalIP: driver.HostLocal, RemoteIP: driver.HostPeer,
				LocalPort: driver.LocalPort(i), RemotePort: driver.PeerPort(i),
			}
			sess, err := s.UDP.Open(t, part, up)
			if err != nil {
				return err
			}
			if cfg.Side == SideSend { // pump's send arm is the one reader
				s.udpSess = append(s.udpSess, sess)
			}
		}
	case ProtoTCP:
		if cfg.Strategy == StrategyLayered {
			if err := s.wireLayered(t); err != nil {
				return err
			}
		} else {
			if err := s.FDDI.OpenEnable(t, ip.EtherType, s.IP); err != nil {
				return err
			}
			if err := s.IP.OpenEnable(t, ip.ProtoTCP, s.TCP); err != nil {
				return err
			}
		}
		s.TCP.StartTimers(t)
		s.tcbs = make([]*tcp.TCB, 0, cfg.Connections)
		for i := 0; i < cfg.Connections; i++ {
			part := xkernel.Part{
				LocalIP: driver.HostLocal, RemoteIP: driver.HostPeer,
				LocalPort: driver.LocalPort(i), RemotePort: driver.PeerPort(i),
			}
			if cfg.Side == SideSend {
				s.Sink = app.NewSink(false, nil)
				tcb, err := s.TCP.Open(t, part, s.Sink)
				if err != nil {
					return err
				}
				s.tcbs = append(s.tcbs, tcb)
			} else {
				if s.Sink == nil {
					s.Sink = app.NewSink(cfg.Ticketing, nil)
				}
				var up xkernel.Receiver = s.Sink
				if s.q3 != nil {
					// Layered: the transport's delivery crosses the
					// TCP->app stage boundary.
					up = &queueReceiver{q: s.q3}
				}
				tcb, err := s.TCP.OpenEnable(t, part, up)
				if err != nil {
					return err
				}
				s.tcbs = append(s.tcbs, tcb)
			}
		}
		if cfg.Side == SideSend {
			s.tcpRecv.StartAckFlush(t, s.Wheel)
		} else {
			if cfg.Ticketing {
				if cfg.Connections != 1 {
					return errors.New("core: ticketing needs a single connection")
				}
				s.Sink.Seq = s.tcbs[0].Sequencer()
			}
			if cfg.Strategy == StrategyLayered {
				// Stage threads must be running before the handshake:
				// the SYN parks on a stage queue.
				s.runLayered(t)
				for i := 0; i < cfg.Connections; i++ {
					if err := s.tcpSend.StartAsync(t, i); err != nil {
						return err
					}
				}
				deadline := t.Now() + 5_000_000_000
				for i := 0; i < cfg.Connections; i++ {
					for !s.tcpSend.Established(i) {
						if t.Now() > deadline {
							return fmt.Errorf("core: layered handshake for connection %d timed out", i)
						}
						t.Sleep(1_000_000)
					}
				}
			} else {
				for i := 0; i < cfg.Connections; i++ {
					if err := s.tcpSend.Start(t, i); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// Bytes returns the workload's throughput counter: payload bytes
// consumed by the driver (send side) or delivered to the application
// (receive side).
func (s *Stack) Bytes() int64 {
	switch {
	case s.steerSink != nil:
		return s.steerSink.Bytes()
	case s.udpSink != nil:
		return s.udpSink.Bytes()
	case s.tcpRecv != nil:
		return s.tcpRecv.Bytes()
	default:
		return s.Sink.Bytes()
	}
}

// FaultStats returns the fault wire's counters (all zero when no
// faults are configured).
func (s *Stack) FaultStats() driver.FaultStats {
	if s.fault == nil {
		return driver.FaultStats{}
	}
	return s.fault.Stats()
}

// fail ends the run on a data-path failure that is not the fault wire's
// doing: the first error is kept for Run to return (a once: host-backend
// pumps are concurrent) and the stop flag goes up, so pumps and the NIC
// produce no more and the control thread's teardown finds what to drain.
func (s *Stack) fail(err error) {
	s.failOnce.Do(func() { s.runErr = err })
	s.stop.Set()
}

// pump is one processor's protocol thread.
func (s *Stack) pump(t *sim.Thread, p int) {
	cfg := &s.Cfg
	conn := p % activeConns(cfg)
	n := 0
	for !s.stop.Get() {
		c := conn
		if cfg.HotConnPct > 0 && cfg.Connections > 1 && t.Rand().Intn(100) < cfg.HotConnPct {
			c = 0 // skewed traffic: pile onto the hot connection
		}
		var err error
		shepherded := 1 // wire packets this iteration moved (telemetry)
		switch {
		case cfg.Proto == ProtoUDP && cfg.Side == SideSend:
			var m *msg.Message
			m, err = s.Source.Next(t)
			if err == nil {
				err = s.udpSess[c].Push(t, m)
			}
			t.Yield() // explicit per-packet yield (Section 3)
		case cfg.Proto == ProtoTCP && cfg.Side == SideSend:
			var m *msg.Message
			m, err = s.Source.Next(t)
			if err == nil {
				err = s.tcbs[c].Push(t, m)
				if errors.Is(err, tcp.ErrClosed) {
					return // aborted at teardown
				}
			}
			t.Yield()
		case cfg.Proto == ProtoUDP && cfg.Side == SideRecv:
			shepherded, err = s.udpSrc.PumpBatch(t, c, cfg.Batch)
			s.noteBatch(shepherded)
		default:
			var ok bool
			shepherded, ok, err = s.tcpSend.PumpBatch(t, c, &s.stop, cfg.Batch)
			s.noteBatch(shepherded)
			if !ok {
				return
			}
		}
		if errors.Is(err, tcp.ErrClosed) {
			return // connection aborted at teardown
		}
		if err != nil {
			s.fail(fmt.Errorf("core: pump %d: %w", p, err))
			return
		}
		if s.telDel != nil && shepherded > 0 {
			s.telDel.Note(p, uint64(c)<<32,
				int64(shepherded), int64(shepherded)*int64(cfg.PacketSize))
		}
		n++
		// An unwired thread moves to a random processor once per eight
		// packets on average: IRIX daemons and interrupts displace
		// unwired threads regularly.
		if !cfg.Wired && t.Rand().Intn(8) == 0 {
			t.MigrateTo(t.Rand().Intn(cfg.Procs))
		}
	}
}

// RunResult carries one run's measurements.
type RunResult struct {
	Mbps float64
	// OOOPct is the percentage of data segments arriving out of order
	// at TCP (receive side; Table 1), or of datagrams delivered out of
	// per-connection sequence order on steered runs.
	OOOPct float64
	// WireOOOPct is the percentage misordered below TCP on the wire
	// (send side).
	WireOOOPct float64
	// LockWaitFrac is total state-lock wait time divided by total
	// virtual CPU time (procs x elapsed) — the Pixie figure. Steered
	// runs count the Flow-Director bucket locks.
	LockWaitFrac float64
	// Packets transferred during the measurement interval.
	Packets int64
	// ImbalancePct is the per-processor delivered-packet spread,
	// (max-mean)/mean in percent, over the measurement interval
	// (steered runs only).
	ImbalancePct float64
	// PeakQueuePct is the worst sampled dispatch-queue imbalance over
	// the run (steered runs only).
	PeakQueuePct float64
	// SteerMigrates counts indirection-bucket moves plus Flow-Director
	// repins during the measurement interval.
	SteerMigrates int64
	// FlowEvicts counts Flow-Director LRU evictions during the
	// measurement interval.
	FlowEvicts int64
	// SteerDrops counts arrivals dropped on a full dispatch ring
	// during the measurement interval.
	SteerDrops int64
	// SinkEvicts counts compact accounting-table evictions at the
	// workload sink during the measurement interval (0 unless
	// Workload.CompactSlots bounds the table).
	SinkEvicts int64
	// BatchFrames counts merged frames injected during the measurement
	// interval (batching runs only; a one-segment flush still counts).
	BatchFrames int64
	// BatchSegs counts the wire segments those frames carried.
	BatchSegs int64
	// BatchSegsPerFrame is the coalescing ratio BatchSegs/BatchFrames.
	BatchSegsPerFrame float64
}

// Run drives the workload: setup, warm-up, a timed measurement
// interval, teardown. It returns the steady-state measurements.
func (s *Stack) Run(warmupNs, measureNs int64) (RunResult, error) {
	cfg := &s.Cfg
	var res RunResult
	s.runErr, s.failOnce = nil, sync.Once{}

	controlProc, wheelProc := 0, 0
	if s.Eng.IsHost() {
		// Pumps own (and are pinned to) procs 0..Procs-1; the control
		// and event threads ride on unpinned procs above them so the
		// measurement window is not perturbed by housekeeping.
		controlProc, wheelProc = cfg.Procs, cfg.Procs+1
		s.Eng.SetHostPinning(cfg.Procs)
	}
	s.Wheel.Start(s.Eng, wheelProc)
	s.Eng.Spawn("control", controlProc, func(t *sim.Thread) {
		defer func() {
			// Teardown must happen even on setup errors or the wheel
			// thread keeps the simulation alive. The stop flag goes up
			// before connections are aborted so pumps in flight see
			// the stop, not a surprise-closed connection.
			s.stop.Set()
			if cfg.Proto == ProtoTCP {
				s.TCP.StopTimers()
				for _, tcb := range s.tcbs {
					tcb.Abort(t)
				}
			}
			if s.tcpRecv != nil {
				s.tcpRecv.StopAckFlush()
			}
			if s.fault != nil {
				s.fault.Shutdown(t)
			}
			for _, qs := range [][]*sim.Queue{s.handoffQs, {s.q1, s.q2, s.q3}, s.steerQs} {
				for _, q := range qs {
					drainQueue(t, q)
				}
			}
			s.Wheel.Stop()
		}()
		if err := s.setup(t); err != nil {
			s.runErr = err
			return
		}
		if s.fault != nil {
			// Arm only after the loss-free handshakes complete: a
			// dropped SYN would deadlock the synchronous setup.
			s.fault.Arm()
		}
		switch {
		case cfg.Steer.Enabled:
			s.runSteer()
		case cfg.Strategy == StrategyConnection:
			s.runConnectionLevel(t)
		case cfg.Strategy == StrategyLayered:
			// Stage threads were spawned during setup (the handshake
			// needs the pipeline running).
		default:
			for p := 0; p < cfg.Procs; p++ {
				p := p
				s.Eng.Spawn(fmt.Sprintf("pump%d", p), p, func(pt *sim.Thread) {
					s.pump(pt, p)
				})
			}
		}
		t.Sleep(warmupNs)
		b0 := s.Bytes()
		pk0, oo0, wo0, ws0 := s.snapshotOrder()
		w0 := s.stateLockWait()
		sm0 := s.steerSnapshot()
		bf0, bs0 := s.batchFrames, s.batchSegs
		t0 := t.Now()
		t.Sleep(measureNs)
		b1 := s.Bytes()
		pk1, oo1, wo1, ws1 := s.snapshotOrder()
		w1 := s.stateLockWait()
		sm1 := s.steerSnapshot()
		bf1, bs1 := s.batchFrames, s.batchSegs
		elapsed := t.Now() - t0

		res.Mbps = float64(b1-b0) * 8 * 1e3 / float64(elapsed)
		if pk1 > pk0 {
			res.OOOPct = 100 * float64(oo1-oo0) / float64(pk1-pk0)
			res.Packets = pk1 - pk0
		}
		if ws1 > ws0 {
			res.WireOOOPct = 100 * float64(wo1-wo0) / float64(ws1-ws0)
			if res.Packets == 0 {
				res.Packets = ws1 - ws0
			}
		}
		if elapsed > 0 {
			res.LockWaitFrac = float64(w1-w0) / float64(elapsed*int64(cfg.Procs))
		}
		res.BatchFrames = bf1 - bf0
		res.BatchSegs = bs1 - bs0
		if res.BatchFrames > 0 {
			res.BatchSegsPerFrame = float64(res.BatchSegs) / float64(res.BatchFrames)
		}
		applySteerMetrics(&res, sm0, sm1)
	})
	s.Eng.Run()
	return res, s.runErr
}

// snapshotOrder gathers ordering counters: (TCP data segs, TCP OOO
// segs, wire OOO, wire segs). Steered runs measure ordering at the
// workload sink instead.
func (s *Stack) snapshotOrder() (int64, int64, int64, int64) {
	if s.steerSink != nil {
		data, ooo := s.steerSink.Order()
		return data, ooo, 0, 0
	}
	var data, ooo, wireOOO, wireSegs int64
	for _, tcb := range s.tcbs {
		o, d := tcb.OOOStats()
		ooo += o
		data += d
	}
	if s.tcpRecv != nil {
		wireOOO, wireSegs = s.tcpRecv.WireOrder()
	}
	return data, ooo, wireOOO, wireSegs
}

// stateLockWait totals connection-state lock wait time (or, steered,
// the Flow-Director bucket lock wait).
func (s *Stack) stateLockWait() int64 {
	if s.steerer != nil {
		return s.steerer.LockWaitNs()
	}
	var w int64
	for _, tcb := range s.tcbs {
		w += tcb.StateLockStats().WaitNs
	}
	return w
}

// RunConfigs derives the per-run configurations Measure executes: one
// copy of cfg per run, each with the run's distinct seed.
func RunConfigs(cfg Config, runs int) []Config {
	if runs <= 0 {
		runs = 1
	}
	out := make([]Config, runs)
	for r := range out {
		c := cfg
		c.Seed = cfg.Seed + uint64(r)*7919
		out[r] = c
	}
	return out
}

// RunPoint builds and runs one configuration once. Each call owns a
// fresh engine and touches no shared state, so independent points may
// execute on concurrent host threads.
func RunPoint(cfg Config, warmupNs, measureNs int64) (RunResult, error) {
	st, err := Build(cfg)
	if err != nil {
		return RunResult{}, err
	}
	return st.Run(warmupNs, measureNs)
}

// AggregateRuns summarizes per-run results exactly as Measure does:
// accumulation happens in run order, so a parallel caller that
// collects results into run-indexed slots reproduces the sequential
// output bit for bit.
func AggregateRuns(rrs []RunResult) (measure.Result, RunResult) {
	var samples []float64
	var agg RunResult
	for _, res := range rrs {
		samples = append(samples, res.Mbps)
		agg.Mbps += res.Mbps
		agg.OOOPct += res.OOOPct
		agg.WireOOOPct += res.WireOOOPct
		agg.LockWaitFrac += res.LockWaitFrac
		agg.Packets += res.Packets
		agg.ImbalancePct += res.ImbalancePct
		agg.PeakQueuePct += res.PeakQueuePct
		agg.SteerMigrates += res.SteerMigrates
		agg.FlowEvicts += res.FlowEvicts
		agg.SteerDrops += res.SteerDrops
		agg.SinkEvicts += res.SinkEvicts
		agg.BatchFrames += res.BatchFrames
		agg.BatchSegs += res.BatchSegs
	}
	n := float64(len(rrs))
	agg.Mbps /= n
	agg.OOOPct /= n
	agg.WireOOOPct /= n
	agg.LockWaitFrac /= n
	agg.ImbalancePct /= n
	agg.PeakQueuePct /= n
	if agg.BatchFrames > 0 {
		agg.BatchSegsPerFrame = float64(agg.BatchSegs) / float64(agg.BatchFrames)
	}
	return measure.Summarize(samples), agg
}

// Measure builds and runs the configuration `runs` times with distinct
// seeds; it summarizes throughput and averages the ordering and lock
// measurements across runs.
func Measure(cfg Config, warmupNs, measureNs int64, runs int) (measure.Result, RunResult, error) {
	cfgs := RunConfigs(cfg, runs)
	rrs := make([]RunResult, len(cfgs))
	for r, c := range cfgs {
		res, err := RunPoint(c, warmupNs, measureNs)
		if err != nil {
			return measure.Result{}, RunResult{}, err
		}
		rrs[r] = res
	}
	sum, agg := AggregateRuns(rrs)
	return sum, agg, nil
}
