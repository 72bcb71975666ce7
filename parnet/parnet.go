// Package parnet is the public API of the parallelized-network-protocols
// library: a faithful reproduction of the system studied in Nahum,
// Yates, Kurose and Towsley, "Performance Issues in Parallelized Network
// Protocols" (OSDI 1994).
//
// The library implements packet-level (thread-per-packet) parallel
// TCP/IP and UDP/IP protocol stacks in the style of a parallelized
// x-kernel — message tool with per-processor caches, locked map manager
// with a 1-behind cache, timing-wheel event manager, Net/2-structured
// TCP with three locking layouts — running on a deterministic discrete-event
// simulation of a shared-memory multiprocessor (see internal/sim and
// DESIGN.md for the hardware substitution rationale).
//
// ExampleSweep is the runnable tour: the paper's Figure 8 dip and its
// MCS recovery, through DefaultConfig, Sweep and Run.
//
// Config embeds the engine's own configuration (internal/core.Config),
// so every structural alternative the paper studies is a field set
// directly on it: locking layout (TCP-1/2/6), lock kind (unfair mutex vs
// FIFO MCS), checksumming, packet size, per-processor message caching,
// atomic vs lock-based reference counts, the Section 4.2 ticketing
// scheme, the assumed-in-order upper bound, connection count, machine
// generation, and thread wiring. The enum and sub-config types below are
// aliases of the internal ones; parnet adds only the measurement
// methodology.
//
// The experiment catalog that regenerates every table and figure of the
// paper is exposed through Experiments and RunExperiment, whose
// ExperimentParams is an alias of the catalogue's own parameters
// (internal/experiments.Params). The ppbench command drives the same
// catalogue and binds its flags to those parameters.
package parnet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/measure"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/steer"
	"repro/internal/tcp"
	"repro/internal/workload"
)

// Protocol selects the transport under test; Side the data-transfer
// direction.
type (
	Protocol = core.Proto
	Side     = core.Side
)

// Transports and sides.
const (
	UDP     = core.ProtoUDP
	TCP     = core.ProtoTCP
	Send    = core.SideSend
	Receive = core.SideRecv
)

// LockKind selects the connection-state lock implementation.
type LockKind = sim.LockKind

// Lock kinds.
const (
	// MutexLock is the raw unfair test-and-set spin lock (the IRIX
	// mutex of the paper): not FIFO, reorders contending threads.
	MutexLock = sim.KindMutex
	// MCSLock is the FIFO queueing lock of Mellor-Crummey and Scott.
	MCSLock = sim.KindMCS
	// TicketLock is a FIFO ticket lock (ablation alternative).
	TicketLock = sim.KindTicket
)

// Layout selects TCP's locking granularity (Section 5.1).
type Layout = tcp.Layout

// Locking layouts.
const (
	// TCP1 protects all connection state with a single lock.
	TCP1 = tcp.Layout1
	// TCP2 uses separate send-side and receive-side locks.
	TCP2 = tcp.Layout2
	// TCP6 uses the six-lock SICS layout, checksums inside the header
	// prepend/remove locks.
	TCP6 = tcp.Layout6
)

// ParallelismStrategy selects how work is divided among processors —
// the three strategies surveyed in the paper's Section 1. Alternatives
// to packet-level parallelism are implemented for the TCP receive path.
type ParallelismStrategy = core.Strategy

// Strategies.
const (
	// PacketLevel is thread-per-packet parallelism (the paper's
	// subject; the default).
	PacketLevel = core.StrategyPacket
	// ConnectionLevel binds each connection to one owning processor
	// (Multiprocessor STREAMS style): connection state never contends
	// and per-connection order is preserved by construction, but a
	// connection cannot use more than one processor.
	ConnectionLevel = core.StrategyConnection
	// Layered assigns protocol layers to processors and pipelines
	// packets between them, paying a context switch per boundary.
	Layered = core.StrategyLayered
)

// RefMode selects how reference counts are manipulated (Section 5.2).
type RefMode = sim.RefMode

// Reference-count modes.
const (
	AtomicRefs = sim.RefAtomic
	LockedRefs = sim.RefLocked
)

// Backend selects the execution substrate.
type Backend = sim.Backend

// Backends.
const (
	// Sim is the deterministic virtual-time simulation the paper's
	// methodology uses (the default).
	Sim = sim.BackendSim
	// Host runs the identical stack on real goroutines with sync-based
	// locks and wall-clock measurement windows (WarmupMs and MeasureMs
	// then elapse in real time — keep them short). Host runs are
	// nondeterministic and support only the plain packet-level shapes.
	Host = sim.BackendHost
)

// Machine describes the simulated hardware generation (Section 7).
type Machine = cost.Machine

// Machines.
var (
	// Challenge100 is the 8-processor 100 MHz R4400 SGI Challenge, the
	// paper's primary platform.
	Challenge100 = cost.Challenge100
	// Challenge150 is the 150 MHz R4400 Challenge.
	Challenge150 = cost.Challenge150
	// PowerSeries33 is the previous-generation 33 MHz R3000 Power
	// Series with a dedicated synchronization bus (four processors).
	PowerSeries33 = cost.PowerSeries33
)

// SteeringPolicy selects how arriving packets are dispatched to
// processors when receive-side flow steering is enabled.
type SteeringPolicy = steer.Policy

// Steering policies.
const (
	// PacketSteering sprays packets round-robin (packet-level
	// parallelism's implicit dispatch; maximally balanced, affinity-blind).
	PacketSteering = steer.PolicyPacket
	// RSSSteering hashes the 4-tuple (Toeplitz) through a static
	// indirection table.
	RSSSteering = steer.PolicyRSS
	// FlowDirectorSteering consults a bounded exact-match flow table
	// pinning each flow to the processor that last consumed it, falling
	// back to RSS on a miss (Intel ATR style).
	FlowDirectorSteering = steer.PolicyFlowDirector
	// RebalanceSteering is RSS plus a dynamic rebalancer that migrates
	// hash buckets off overloaded processors.
	RebalanceSteering = steer.PolicyRebalance
)

// The sub-configurations of Config: receive-side flow steering (UDP
// receive only) and its many-connection traffic generator, GRO-style
// receive batching, and the fault-injection wire. Zero values take the
// subsystem defaults; all-zero leaves the subsystem out of the stack.
type (
	SteerConfig    = steer.Config
	WorkloadConfig = workload.Config
	BatchConfig    = msg.BatchConfig
	FaultRates     = driver.FaultRates
	FaultConfig    = driver.FaultConfig
)

// Config describes one workload: the engine's configuration plus the
// measurement methodology.
type Config struct {
	core.Config

	// Measurement methodology (virtual time; the paper used 30 s
	// warm-up, 30 s measurement, 10 runs).
	WarmupMs  int64
	MeasureMs int64
	Runs      int

	// Workers bounds the host OS threads that independent runs and
	// sweep points fan across (0 means GOMAXPROCS). Results are
	// byte-identical for every value. Host-backend points always run
	// one at a time regardless of Workers — concurrent real-time runs
	// would contend for the same CPUs and corrupt each other's numbers.
	Workers int
}

// DefaultConfig is the paper's baseline: UDP send side, one processor,
// 4 KB packets with checksumming, message caching, atomic refcounts,
// TCP-1 with mutex locks, wired threads, 100 MHz Challenge, and a
// scaled-down measurement protocol.
func DefaultConfig() Config {
	c := Config{Config: core.DefaultConfig(), WarmupMs: 500, MeasureMs: 1000, Runs: 3}
	c.Seed = 1994
	return c
}

// Result reports one configuration's measurements: the engine's, meaned
// over the runs (counts are summed), plus the spread of the throughput.
type Result struct {
	core.RunResult
	// CI90 is the 90% confidence interval half-width over the runs.
	CI90 float64
	// Samples holds each run's throughput.
	Samples []float64
}

// withDefaults fills an unset methodology.
func (c Config) withDefaults() Config {
	if c.Runs <= 0 {
		c.Runs = 1
	}
	if c.WarmupMs <= 0 {
		c.WarmupMs = 500
	}
	if c.MeasureMs <= 0 {
		c.MeasureMs = 1000
	}
	return c
}

// measureAll runs every configuration under c's methodology.
func (c Config) measureAll(cfgs []core.Config) ([]Result, error) {
	sums, aggs, err := experiments.RunPoints(cfgs,
		c.WarmupMs*1_000_000, c.MeasureMs*1_000_000, c.Runs, c.Workers)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(cfgs))
	for i := range out {
		out[i] = Result{RunResult: aggs[i], CI90: sums[i].CI90, Samples: sums[i].Samples}
		out[i].Mbps = sums[i].Mean
	}
	return out, nil
}

// Run measures one configuration: Runs independent runs, each with a
// warm-up then a timed steady-state interval, on fresh stacks.
func Run(c Config) (Result, error) {
	c = c.withDefaults()
	rs, err := c.measureAll([]core.Config{c.Config})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// ProfileRun measures one run of the configuration and additionally
// returns a Pixie-style profile report: per-lock wait and hold times,
// message-tool and demultiplexing statistics, and protocol counters.
func ProfileRun(c Config) (Result, string, error) {
	c = c.withDefaults()
	st, err := core.Build(c.Config)
	if err != nil {
		return Result{}, "", err
	}
	rr, err := st.Run(c.WarmupMs*1_000_000, c.MeasureMs*1_000_000)
	if err != nil {
		return Result{}, "", err
	}
	return Result{RunResult: rr, Samples: []float64{rr.Mbps}}, st.ProfileReport(), nil
}

// Sweep measures the configuration at every processor count from 1 to
// maxProcs, returning one Result per count. With Connections > 1, the
// connection count follows the processor count (one per processor).
// Points and repeat runs fan across c.Workers host threads (0 means
// GOMAXPROCS); the results are byte-identical to a sequential sweep.
func Sweep(c Config, maxProcs int) ([]Result, error) {
	c = c.withDefaults()
	cfgs := make([]core.Config, 0, maxProcs)
	for n := 1; n <= maxProcs; n++ {
		cfg := c.Config
		cfg.Procs = n
		if c.Connections > 1 {
			cfg.Connections = n
		}
		cfgs = append(cfgs, cfg)
	}
	return c.measureAll(cfgs)
}

// Speedup normalizes a sweep to its first point.
func Speedup(rs []Result) []float64 {
	pts := make([]measure.Result, len(rs))
	for i, r := range rs {
		pts[i] = measure.Result{Mean: r.Mbps}
	}
	return measure.Speedup(pts)
}

// Experiment identifies one reproducible table or figure of the paper.
type Experiment struct {
	ID      string
	Figures string
	Brief   string
}

// Experiments lists the full catalog in paper order.
func Experiments() []Experiment {
	var out []Experiment
	for _, s := range experiments.Catalog() {
		out = append(out, Experiment{ID: s.ID, Figures: s.Figures, Brief: s.Brief})
	}
	return out
}

// ExperimentParams scales the measurement effort of RunExperiment. It
// is the catalogue's own parameter type, so its durations are virtual
// nanoseconds (WarmupNs, MeasureNs) and ppbench's flags set the same
// fields.
type ExperimentParams = experiments.Params

// DefaultExperimentParams is the standard scaled-down methodology:
// processor sweeps to 8, 1 s warm-up, 2 s measurement, 3 runs.
func DefaultExperimentParams() ExperimentParams { return experiments.DefaultParams() }

// QuickExperimentParams is the smoke-run methodology ppbench -quick
// starts from.
func QuickExperimentParams() ExperimentParams { return experiments.QuickParams() }

// RunExperiment regenerates one paper table/figure by ID (for example
// "fig08-09" or "table1") and returns the rendered text tables.
func RunExperiment(id string, p ExperimentParams) ([]string, error) {
	spec, ok := experiments.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("parnet: unknown experiment %q", id)
	}
	tables, err := spec.Run(p)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, tb := range tables {
		out = append(out, tb.String())
	}
	return out, nil
}
