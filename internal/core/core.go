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
	"sync/atomic"

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
	Machine     cost.Machine
	Seed        uint64

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
	// the driver and the FDDI layer (drop/duplicate/corrupt/reorder, per
	// direction). All-zero — the default — builds the identical stack as
	// before: the wire is not even inserted. With the wire in, receive-
	// side checksumming turns from verify-and-ignore (the paper's
	// measurement mode) into verify-and-drop, so corrupted frames act as
	// loss; on a clean frame the two charge the same.
	Faults driver.FaultConfig

	// TCP structure.
	Layout             tcp.Layout
	LockKind           sim.LockKind
	AssumeInOrder      bool
	Ticketing          bool // an order-requiring application; TCP receive over one connection only
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
	// (internal/workload). Unsteered, only its HotConnPct is read: each
	// pump sends that percentage of its packets to connection 0 instead
	// of its own (the paper calls its uniform multi-connection test
	// "idealized"; ext-skew measures what skew costs).
	Workload workload.Config

	// Trace enables the packet flight recorder (internal/trace): ring
	// buffers of per-processor events plus lock-wait, layer-residence
	// and end-to-end latency histograms. Recording is virtual-time
	// neutral — measurements are identical with tracing on or off.
	Trace bool

	// SamplePeriodNs enables the virtual-time telemetry sampler
	// (internal/telemetry): every registered counter/gauge series is
	// snapshotted each period, and ProfileReport gains the top-N
	// lock/flow attribution section. 0 (the default) disables sampling.
	// Sampling is virtual-time neutral — measurements are identical with
	// sampling on or off.
	SamplePeriodNs int64
}

// DefaultConfig returns the paper's baseline configuration (Section 3):
// message caching on, atomic increment/decrement, single state lock
// (TCP-1) with the SGI-supplied mutex locks, wired threads, 100 MHz
// Challenge.
func DefaultConfig() Config {
	return Config{
		Proto:       ProtoUDP,
		Side:        SideSend,
		Procs:       1,
		Connections: 1,
		PacketSize:  4096,
		Checksum:    true,
		Machine:     cost.Challenge100,
		Layout:      tcp.Layout1,
		LockKind:    sim.KindMutex,
		AckEvery:    2,
		MsgCache:    true,
		RefMode:     sim.RefAtomic,
		MapLocking:  true,
		MapCache:    true,
		Wired:       true,
	}
}

// Stack is one assembled protocol stack plus its drivers and app.
type Stack struct {
	Cfg   Config
	Eng   *sim.Engine
	Wheel *event.Wheel
	Alloc *msg.Allocator
	// Rec is the engine's observer, the flight recorder: nil unless
	// Cfg.Trace or Cfg.SamplePeriodNs is set, and without event rings
	// unless Cfg.Trace is.
	Rec *trace.Recorder
	// Tel is the telemetry sampler (nil unless Cfg.SamplePeriodNs > 0).
	Tel *telemetry.Sampler

	FDDI *fddi.Protocol
	IP   *ip.Protocol
	UDP  *udp.Protocol
	TCP  *tcp.Protocol

	// Sink is the application above the transport on the receive
	// shapes: the one sink every receive shape delivers to, with the
	// steered shape's per-flow state behind Sink.Flows. Nil on the send
	// shapes, whose throughput point is the driver peer.
	Sink *app.Sink

	sh    shape
	fault *driver.FaultWire // nil unless Cfg.Faults is enabled

	stop sim.Flag
	// runErr is the first failure of the current Run: set-up's, the one
	// a pump or steering thread reported through fail, or the shape's
	// delivery check.
	runErr error
	// lost tallies what TCP accepted and teardown freed before the
	// application took it (the layered tcp->app queue).
	lost app.Tally

	// Steering plumbing (steer.go); all nil unless Cfg.Steer.Enabled.
	steerer    *steer.Steerer
	steerGen   *workload.Generator
	steerQs    []*sim.Queue
	steerDrops int64

	// Batching accounting (noteBatch; read with atomic loads): merged
	// frames injected and the wire segments they carried. Zero when
	// batching is off.
	batchFrames int64
	batchSegs   int64

	// Telemetry plumbing (telemetry.go); nil unless sampling is on.
	// telDel bundles the per-processor delivery counters with the flow
	// sketch; telFlows aliases the sketch for attribution reads.
	telDel   *telemetry.Deliveries
	telFlows *telemetry.FlowSketch

	// Layered-strategy plumbing (strategy.go).
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
	if !cfg.Checksum && (cfg.Faults.Up.Corrupt > 0 || cfg.Faults.Down.Corrupt > 0) {
		return nil, errors.New("core: corrupting faults need the checksum on, or damaged payload is delivered")
	}
	if cfg.Machine.CPU <= 0 || cfg.Machine.Mem <= 0 {
		return nil, fmt.Errorf("core: Machine %q has no CPU or memory speed (start from DefaultConfig)", cfg.Machine.Name)
	}
	for _, validate := range []func(*Config) error{validateKnobs, validateTicketing, validateStrategy, validateSteer, validateBatch} {
		if err := validate(cfg); err != nil {
			return nil, err
		}
	}
	s.Eng = sim.NewBackend(cost.NewModel(cfg.Machine), cfg.Seed+1, cfg.Backend)
	if cfg.Trace || cfg.SamplePeriodNs > 0 {
		// procs+2 tracks: pumps plus the control and event threads; rings
		// of the default depth only when tracing.
		depth := -1
		if cfg.Trace {
			depth = 0
		}
		s.Rec = trace.New(cfg.Procs+2, depth)
		s.Eng.Rec = s.Rec
	}

	s.Wheel = event.New()

	mcfg := msg.Config{
		CacheEnabled: cfg.MsgCache,
		RefMode:      cfg.RefMode,
		MaxProcs:     cfg.Procs + 2, // pumps + control + event threads
		CacheDepth:   256,
	}
	s.Alloc = msg.NewAllocator(mcfg)

	// IP reaches FDDI only at its first Open, so the layers build top
	// down: IP, the shape (driver peer, transport, application), FDDI.
	low := ip.LowerFDDI(fddi.MTU, func(t *sim.Thread, remote xkernel.MAC, proto uint16) (xkernel.Session, error) {
		return s.FDDI.Open(t, remote, proto)
	})
	s.IP = ip.New(ip.Config{Local: driver.HostLocal, RefMode: cfg.RefMode}, low)
	s.sh = s.newShape()
	if s.Sink != nil && cfg.PacketSize < workload.StampLen {
		return nil, fmt.Errorf("core: a receive shape needs PacketSize >= %d for the payload stamp", workload.StampLen)
	}

	var wire xkernel.Wire = s.sh.peer
	if cfg.Faults.Enabled() {
		// The schedule's seed derives from the engine seed, so the
		// per-run seeds (RunConfigs) vary the schedule while any single config stays
		// bit-reproducible.
		s.fault = driver.NewFaultWire(cfg.Faults, cfg.Seed^0x9E3779B97F4A7C15, s.Alloc, wire)
		wire = s.fault
	}
	s.FDDI = fddi.New(fddi.Config{
		Self:       xkernel.MAC{0xA, 0, 0, 0, 0, 1},
		RefMode:    cfg.RefMode,
		MapLocking: cfg.MapLocking,
		MapNoCache: !cfg.MapCache,
	}, wire)
	upper := xkernel.Demuxer(s.FDDI)
	if s.fault != nil {
		s.fault.SetUpper(s.FDDI)
		upper = s.fault
	}
	s.sh.peer.SetUpper(upper)

	if cfg.SamplePeriodNs > 0 {
		// After the shape: the queue-depth gauges close over the rings.
		s.buildTelemetry()
	}
	return s, nil
}

// validateTicketing refuses ticketing where Run would ignore it or could
// not run it: up-tickets order one TCP connection's deliveries to the
// receive-side application.
func validateTicketing(cfg *Config) error {
	if !cfg.Ticketing {
		return nil
	}
	if cfg.Proto != ProtoTCP || cfg.Side != SideRecv {
		return errors.New("core: ticketing orders deliveries on the TCP receive side")
	}
	if cfg.Connections != 1 {
		return errors.New("core: ticketing needs a single connection")
	}
	return nil
}

// demuxBuckets sizes the transport demux table from the connection
// count — max(64, next power of two >= Connections) — so chains average
// at most one binding without growth. The floor of 64 (the x-kernel
// default) keeps every small-connection shape on the seed's table size.
func demuxBuckets(cfg *Config) int {
	b := 64
	for b < cfg.Connections {
		b <<= 1
	}
	return b
}

// drainQueue closes q at teardown and frees the messages parked on it,
// folding in those TCP accepted for the application (the tcp->app queue).
func (s *Stack) drainQueue(t *sim.Thread, q *sim.Queue) {
	q.Close(t)
	for {
		item, ok := q.TryDequeue(t)
		if !ok {
			return
		}
		if q == s.q3 {
			s.undelivered(t, item.(*msg.Message))
		} else {
			item.(*msg.Message).Free(t)
		}
	}
}

// undelivered frees m, a delivery TCP accepted that never reached the
// application, and adds it to lost for the delivery check.
func (s *Stack) undelivered(t *sim.Thread, m *msg.Message) {
	_, tl, err := s.Sink.Stamps(m)
	if err != nil {
		s.fail(fmt.Errorf("core: undelivered: %w", err))
	}
	s.lost.Segs += tl.Segs
	s.lost.Sum += tl.Sum
	m.Free(t)
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

// Bytes returns the workload's throughput counter: payload bytes
// consumed by the driver (send side) or delivered to the application
// (receive side).
func (s *Stack) Bytes() int64 { return s.sh.counter.Bytes() }

// fail ends the run on a data-path failure that is not the fault wire's
// doing: the first error is kept for Run to return (a once: host-backend
// pumps are concurrent) and the stop flag goes up, so pumps and the NIC
// produce no more and the control thread's teardown finds what to drain.
func (s *Stack) fail(err error) {
	s.failOnce.Do(func() { s.runErr = err })
	s.stop.Set()
}

// runPumps spawns one packet-level pump per processor.
func (s *Stack) runPumps(*sim.Thread) {
	for p := 0; p < s.Cfg.Procs; p++ {
		p := p
		s.Eng.Spawn(fmt.Sprintf("pump%d", p), p, func(pt *sim.Thread) {
			s.pump(pt, p)
		})
	}
}

// pump is one processor's protocol thread.
func (s *Stack) pump(t *sim.Thread, p int) {
	cfg := &s.Cfg
	conn := p % activeConns(cfg)
	n := 0
	for !s.stop.Get() {
		c := conn
		if hot := cfg.Workload.HotConnPct; hot > 0 && cfg.Connections > 1 && t.Rand().Intn(100) < hot {
			c = 0 // skewed traffic: pile onto the hot connection
		}
		// shepherded is the wire packets this iteration moved (telemetry).
		shepherded, ok, err := s.sh.pump.PumpBatch(t, c, &s.stop, cfg.Batch)
		s.noteBatch(t, shepherded)
		if errors.Is(err, tcp.ErrClosed) {
			return // the connection aborted at teardown
		}
		if err != nil {
			s.fail(fmt.Errorf("core: pump %d: %w", p, err))
			return
		}
		if !ok {
			return // stopped
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
	// steered sink during the measurement interval (0 unless
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
			s.sh.teardown(s, t)
			if s.fault != nil {
				s.fault.Shutdown(t)
			}
			for _, q := range s.sh.queues {
				s.drainQueue(t, q)
			}
			s.Wheel.Stop()
		}()
		if err := s.sh.setup(s, t); err != nil {
			s.runErr = err
			return
		}
		if s.fault != nil {
			// Arm only after the loss-free handshakes complete: a
			// dropped SYN would deadlock the synchronous setup.
			s.fault.Arm()
		}
		s.sh.run(s, t)
		t.Sleep(warmupNs)
		b0, sn0 := s.Bytes(), s.sh.snapshot(s)
		bf0, bs0 := atomic.LoadInt64(&s.batchFrames), atomic.LoadInt64(&s.batchSegs)
		t0 := t.Now()
		t.Sleep(measureNs)
		b1, sn1 := s.Bytes(), s.sh.snapshot(s)
		bf1, bs1 := atomic.LoadInt64(&s.batchFrames), atomic.LoadInt64(&s.batchSegs)
		elapsed := t.Now() - t0

		res.Mbps = float64(b1-b0) * 8 * 1e3 / float64(elapsed)
		if sn1.data > sn0.data {
			res.OOOPct = 100 * float64(sn1.ooo-sn0.ooo) / float64(sn1.data-sn0.data)
			res.Packets = sn1.data - sn0.data
		}
		if sn1.wireSegs > sn0.wireSegs {
			res.WireOOOPct = 100 * float64(sn1.wireOOO-sn0.wireOOO) / float64(sn1.wireSegs-sn0.wireSegs)
			if res.Packets == 0 {
				res.Packets = sn1.wireSegs - sn0.wireSegs
			}
		}
		if elapsed > 0 {
			res.LockWaitFrac = float64(sn1.lockWait-sn0.lockWait) / float64(elapsed*int64(cfg.Procs))
		}
		res.BatchFrames = bf1 - bf0
		res.BatchSegs = bs1 - bs0
		if res.BatchFrames > 0 {
			res.BatchSegsPerFrame = float64(res.BatchSegs) / float64(res.BatchFrames)
		}
		applySteerMetrics(&res, sn0, sn1)
	})
	s.Eng.Run()
	if s.runErr == nil && s.sh.check != nil {
		s.runErr = s.sh.check(s)
	}
	return res, s.runErr
}

// RunConfigs derives the per-run configurations of a repeated
// measurement: one copy of cfg per run, each with the run's distinct
// seed.
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
// fresh engine, so independent points may execute on concurrent host
// threads; the only state they share is the pool of message buffers a
// finished point releases for the next one's arena, which moves no
// virtual time.
func RunPoint(cfg Config, warmupNs, measureNs int64) (RunResult, error) {
	st, err := Build(cfg)
	if err != nil {
		return RunResult{}, err
	}
	res, err := st.Run(warmupNs, measureNs)
	st.Alloc.Release()
	return res, err
}

// AggregateRuns summarizes per-run results: it summarizes throughput
// and averages the ordering and lock measurements. Accumulation happens
// in run order, so a parallel caller that collects results into
// run-indexed slots reproduces the sequential output bit for bit.
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
