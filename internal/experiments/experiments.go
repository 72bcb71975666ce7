// Package experiments reproduces every table and figure of the paper's
// evaluation, mapping each onto configurations of the core engine. Each
// Spec regenerates the rows/series of one or two related figures (a
// throughput figure and its speedup twin share the same data).
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Params scales experiment effort. The paper ran 30 s measurements
// after 30 s warm-up, averaged over 10 runs; the defaults here are
// scaled down and can be raised from the command line.
type Params struct {
	MaxProcs  int   // sweep 1..MaxProcs (paper: 8)
	WarmupNs  int64 // virtual warm-up per run
	MeasureNs int64 // virtual measurement interval per run
	Runs      int   // runs averaged per point
	Seed      uint64
	// LossRates overrides the ext-loss ladder (default {0, 0.001,
	// 0.01, 0.05}); other experiments ignore it.
	LossRates []float64
	// BatchSizes overrides the ext-batch MaxSegs ladder (default
	// {1, 4, 8}; 1 means batching off); other experiments ignore it.
	BatchSizes []int
	// ScaleConns overrides the ext-scale connection ladder (default
	// {1000, 10000, 100000, 1000000}); other experiments ignore it.
	ScaleConns []int
	// Workers bounds the host OS threads the runner fans independent
	// simulation points across (0 means GOMAXPROCS). Results are
	// byte-identical for every value — see pool.go.
	Workers int
	// SamplePeriodNs turns on virtual-time telemetry sampling in the
	// profile suite (ProfileSuiteSeries archives the series). 0 leaves
	// sampling off; sweeps ignore it.
	SamplePeriodNs int64
	// Backend selects the execution substrate for the experiments that
	// honor it. Today that is ext-host, which runs its strategy sweep on
	// both substrates unless Backend names the sim backend
	// (sim.BackendSim.String()), which skips the wall-clock half. The
	// paper-figure experiments are simulation-only and ignore it.
	Backend string
}

// DefaultParams is the standard scaled-down methodology.
func DefaultParams() Params {
	return Params{
		MaxProcs:  8,
		WarmupNs:  1_000_000_000,
		MeasureNs: 2_000_000_000,
		Runs:      3,
		Seed:      1994,
	}
}

// QuickParams is for smoke runs and tests.
func QuickParams() Params {
	return Params{
		MaxProcs:   4,
		WarmupNs:   300_000_000,
		MeasureNs:  500_000_000,
		Runs:       1,
		Seed:       1994,
		ScaleConns: []int{256, 2048},
	}
}

// Spec is one experiment: a row of the catalogue. Its processor sweeps
// are declared (Sweeps); what is not a processor sweep — a ladder at
// MaxProcs, the checksum loop, the host backend — is a function (Extra).
type Spec struct {
	ID      string // catalog key, e.g. "fig02-03"
	Figures string // what in the paper it regenerates
	Brief   string
	Sweeps  []Sweep
	// Extra returns the tables that follow the sweeps' own.
	Extra func(p Params) ([]measure.Table, error)
}

// Run measures the experiment and returns its tables.
func (s Spec) Run(p Params) ([]measure.Table, error) {
	tables, err := runSweeps(s.Sweeps, p)
	if err != nil || s.Extra == nil {
		return tables, err
	}
	more, err := s.Extra(p)
	return append(tables, more...), err
}

// Configs lists every configuration the spec's declared sweeps run
// under p, in submission order. It is the listing the runner itself
// submits, so a check made over it covers what Run measures (Extra's
// points aside).
func (s Spec) Configs(p Params) []core.Config {
	var out []core.Config
	for _, sw := range s.Sweeps {
		out = append(out, sw.Configs(p)...)
	}
	return out
}

func baselineUDP(side core.Side) core.Config {
	cfg := core.DefaultConfig()
	cfg.Proto = core.ProtoUDP
	cfg.Side = side
	return cfg
}

func baselineTCP(side core.Side) core.Config {
	cfg := core.DefaultConfig()
	cfg.Proto = core.ProtoTCP
	cfg.Side = side
	return cfg
}

// with returns cfg with set applied: a baseline that departs from the
// paper's default for the whole figure.
func with(cfg core.Config, set func(*core.Config)) core.Config {
	set(&cfg)
	return cfg
}

// The departures several figures share.
func mcsLocks(c *core.Config)    { c.LockKind = sim.KindMCS }
func checksumOff(c *core.Config) { c.Checksum = false }

// paperCurves is the paper's standard curve family: {4K,1K} packets x
// checksum {off,on}.
func paperCurves(prefix string) []Curve {
	return []Curve{
		{Label: prefix + "4K Byte Packets, Checksum Off", Set: checksumOff},
		{Label: prefix + "4K Byte Packets, Checksum On"},
		{Label: prefix + "1K Byte Packets, Checksum Off", Set: func(c *core.Config) { c.PacketSize, c.Checksum = 1024, false }},
		{Label: prefix + "1K Byte Packets, Checksum On", Set: func(c *core.Config) { c.PacketSize = 1024 }},
	}
}

// throughputAndSpeedup is the two standard tables of one sweep.
func throughputAndSpeedup(tputTitle, spdupTitle string) []View {
	return []View{
		{Title: tputTitle, YLabel: "Mbit/s"},
		{Title: spdupTitle, YLabel: "relative speedup", Speedup: true},
	}
}

// lockingCurves is Figures 13-14's family: the three locking layouts at
// both packet sizes.
func lockingCurves() []Curve {
	var out []Curve
	for _, lay := range []tcp.Layout{tcp.Layout1, tcp.Layout2, tcp.Layout6} {
		for _, size := range []int{4096, 1024} {
			out = append(out, Curve{
				Label: fmt.Sprintf("%v %dKB Packets", lay, size/1024),
				Set:   func(c *core.Config) { c.Layout, c.PacketSize = lay, size },
			})
		}
	}
	return out
}

// machineCurves is Figures 17-18's family: each machine generation with
// checksumming off and on.
func machineCurves() []Curve {
	var out []Curve
	for _, m := range cost.Machines {
		maxP := 0
		if m.SyncBus {
			maxP = 4 // the Power Series had four processors
		}
		out = append(out,
			Curve{Label: m.Name + ", Checksum Off", MaxProcs: maxP,
				Set: func(c *core.Config) { c.Machine, c.Checksum = m, false }},
			Curve{Label: m.Name + ", Checksum On", MaxProcs: maxP,
				Set: func(c *core.Config) { c.Machine = m }})
	}
	return out
}

// specs builds the full catalog.
func specs() []Spec {
	udpSend, udpRecv := baselineUDP(core.SideSend), baselineUDP(core.SideRecv)
	tcpSend, tcpRecv := baselineTCP(core.SideSend), baselineTCP(core.SideRecv)
	return []Spec{
		{
			ID:      "fig02-03",
			Figures: "Figures 2 and 3",
			Brief:   "UDP send-side throughput and speedup, single connection",
			Sweeps: []Sweep{{Base: udpSend, Curves: paperCurves(""), Views: throughputAndSpeedup(
				"Figure 2: UDP Send Side Throughputs",
				"Figure 3: UDP Send Side Speedup")}},
		},
		{
			ID:      "fig04-05",
			Figures: "Figures 4 and 5",
			Brief:   "UDP receive-side throughput and speedup, single connection",
			Sweeps: []Sweep{{Base: udpRecv, Curves: paperCurves(""), Views: throughputAndSpeedup(
				"Figure 4: UDP Receive Side Throughputs",
				"Figure 5: UDP Receive Side Speedup")}},
		},
		{
			ID:      "fig06-07",
			Figures: "Figures 6 and 7",
			Brief:   "TCP-1 send-side throughput and speedup, single connection, mutex state lock",
			Sweeps: []Sweep{{Base: tcpSend, Curves: paperCurves("TCP1 "), Views: throughputAndSpeedup(
				"Figure 6: TCP Send Side Throughputs",
				"Figure 7: TCP Send Side Speedup")}},
		},
		{
			ID:      "fig08-09",
			Figures: "Figures 8 and 9",
			Brief:   "TCP-1 receive-side throughput and speedup: the misordering dip beyond 4-5 CPUs",
			Sweeps: []Sweep{{Base: tcpRecv, Curves: paperCurves(""), Views: throughputAndSpeedup(
				"Figure 8: TCP Receive Side Throughputs",
				"Figure 9: TCP Receive Side Speedup")}},
		},
		{
			ID:      "fig10",
			Figures: "Figure 10",
			Brief:   "Ordering effects in TCP receive: assumed-in-order vs MCS locks vs mutex locks (4KB, checksum on)",
			Sweeps: []Sweep{{
				Base: tcpRecv,
				Curves: []Curve{
					{Label: "TCP-1 Assumed In-Order", Set: func(c *core.Config) { c.AssumeInOrder = true }},
					{Label: "TCP-1 MCS Locks", Set: mcsLocks},
					{Label: "TCP-1 Mutex Locks"},
				},
				Views: []View{{Title: "Figure 10: Ordering Effects in TCP (recv, 4KB, checksum on)"}},
			}},
		},
		{
			ID:      "table1",
			Figures: "Table 1",
			Brief:   "Percentage of packets out-of-order at TCP: mutex vs MCS locks (recv, 4KB, checksum on)",
			Sweeps: []Sweep{{
				Base: tcpRecv,
				Curves: []Curve{
					{Label: "Mutex Locks (% OOO)"},
					{Label: "MCS Locks (% OOO)", Set: mcsLocks},
				},
				Views: []View{{Title: "Table 1: Percentage of packets out-of-order at TCP (recv, 4KB, checksum on)",
					YLabel: "% out-of-order", Stat: oooPct}},
			}},
		},
		{
			ID:      "fig11",
			Figures: "Figure 11",
			Brief:   "Ticketing effects in TCP receive: order-requiring application vs not (4KB)",
			Sweeps: []Sweep{{
				Base: with(tcpRecv, mcsLocks),
				Curves: []Curve{
					{Label: "Checksum Off, No Ticketing", Set: checksumOff},
					{Label: "Checksum On, No Ticketing"},
					{Label: "Checksum Off, With Ticketing", Set: func(c *core.Config) { c.Checksum, c.Ticketing = false, true }},
					{Label: "Checksum On, With Ticketing", Set: func(c *core.Config) { c.Ticketing = true }},
				},
				Views: []View{{Title: "Figure 11: Ticketing Effects in TCP (recv, 4KB)"}},
			}},
		},
		{
			ID:      "fig12",
			Figures: "Figure 12",
			Brief:   "TCP with multiple connections: one connection per processor, MCS locks, 4KB",
			Sweeps: []Sweep{{
				Base:        with(tcpRecv, mcsLocks),
				ConnPerProc: true,
				Curves: []Curve{
					{Label: "Recv-side, Checksum Off", Set: checksumOff},
					{Label: "Recv-side, Checksum On"},
					{Label: "Send-side, Checksum Off", Set: func(c *core.Config) { c.Side, c.Checksum = core.SideSend, false }},
					{Label: "Send-side, Checksum On", Set: func(c *core.Config) { c.Side = core.SideSend }},
				},
				Views: []View{{Title: "Figure 12: TCP with Multiple Connections (one per processor, MCS, 4KB)"}},
			}},
		},
		{
			ID:      "fig13",
			Figures: "Figure 13",
			Brief:   "TCP send-side locking comparison: TCP-1 vs TCP-2 vs TCP-6 (MCS locks, checksum on)",
			Sweeps: []Sweep{{Base: with(tcpSend, mcsLocks), Curves: lockingCurves(),
				Views: []View{{Title: "Figure 13: TCP Send-Side Locking Comparison"}}}},
		},
		{
			ID:      "fig14",
			Figures: "Figure 14",
			Brief:   "TCP receive-side locking comparison: TCP-1 vs TCP-2 vs TCP-6 (MCS locks, checksum on)",
			Sweeps: []Sweep{{Base: with(tcpRecv, mcsLocks), Curves: lockingCurves(),
				Views: []View{{Title: "Figure 14: TCP Receive-Side Locking Comparison"}}}},
		},
		{
			ID:      "fig15",
			Figures: "Figure 15",
			Brief:   "Atomic increment/decrement vs lock-based refcounts (TCP, 4KB, checksum on)",
			Sweeps: []Sweep{{
				Base: tcpRecv,
				Curves: []Curve{
					{Label: "Recv-side, Atomic Ops"},
					{Label: "Recv-side, No Atomic Ops", Set: func(c *core.Config) { c.RefMode = sim.RefLocked }},
					{Label: "Send-side, Atomic Ops", Set: func(c *core.Config) { c.Side = core.SideSend }},
					{Label: "Send-side, No Atomic Ops", Set: func(c *core.Config) { c.Side, c.RefMode = core.SideSend, sim.RefLocked }},
				},
				Views: []View{{Title: "Figure 15: TCP Atomic Operations Impact (4KB, checksum on)"}},
			}},
		},
		{
			ID:      "fig16",
			Figures: "Figure 16",
			Brief:   "Per-processor message caching vs global arena (TCP, 4KB, checksum on)",
			Sweeps: []Sweep{{
				Base: tcpRecv,
				Curves: []Curve{
					{Label: "Recv-side, Messages Cached"},
					{Label: "Recv-side, Messages Not Cached", Set: func(c *core.Config) { c.MsgCache = false }},
					{Label: "Send-side, Messages Cached", Set: func(c *core.Config) { c.Side = core.SideSend }},
					{Label: "Send-side, Messages Not Cached", Set: func(c *core.Config) { c.Side, c.MsgCache = core.SideSend, false }},
				},
				Views: []View{{Title: "Figure 16: TCP Message Caching Impact (4KB, checksum on)"}},
			}},
		},
		{
			ID:      "fig17-18",
			Figures: "Figures 17 and 18",
			Brief:   "TCP receive throughput and speedup across machine generations",
			Sweeps: []Sweep{{Base: tcpRecv, Curves: machineCurves(), Views: []View{
				{Title: "Figure 17: TCP Throughputs across Architectures (recv, 4KB)"},
				{Title: "Figure 18: TCP Speedups across Architectures (recv, 4KB)", YLabel: "relative speedup", Speedup: true},
			}}},
		},
		{
			ID:      "sec3.2-checksum",
			Figures: "Section 3.2 (text)",
			Brief:   "Checksum micro-benchmark: per-CPU bandwidth and implied bus headroom",
			Extra:   runChecksumMicro,
		},
		{
			ID:      "sec3-wiring",
			Figures: "Section 3 (text)",
			Brief:   "Wired vs unwired threads (UDP send): wiring changes little",
			Sweeps: []Sweep{{
				Base: udpSend,
				Curves: []Curve{
					{Label: "Threads Wired to Processors"},
					{Label: "Threads Unwired", Set: func(c *core.Config) { c.Wired = false }},
				},
				Views: []View{{Title: "Section 3: Wired vs Unwired Threads (UDP send, 4KB, checksum on)"}},
			}},
		},
		{
			ID:      "sec3.1-maplock",
			Figures: "Section 3.1 (text)",
			Brief:   "Demultiplexing with vs without map locks (~10% effect)",
			Sweeps: []Sweep{{
				Base: udpRecv,
				Curves: []Curve{
					{Label: "Maps Locked"},
					{Label: "Maps Not Locked", Set: func(c *core.Config) { c.MapLocking = false }},
				},
				Views: []View{{Title: "Section 3.1: Demultiplexing With vs Without Map Locks (UDP recv, 4KB)"}},
			}},
		},
		{
			ID:      "sec4.1-wireorder",
			Figures: "Section 4.1 (text)",
			Brief:   "Send-side misordering below TCP (<1% up to 8 CPUs)",
			Sweeps: []Sweep{{
				Base:   tcpSend,
				Curves: []Curve{{Label: "% misordered on the wire"}},
				Views: []View{{Title: "Section 4.1: Send-side misordering below TCP (4KB, checksum on)",
					YLabel: "% out-of-order", Stat: wireOOOPct}},
			}},
		},
		{
			ID:      "ablation-fifo",
			Figures: "(ablation)",
			Brief:   "FIFO lock kind: MCS vs ticket lock (TCP recv, 4KB, checksum on)",
			Sweeps: []Sweep{{
				Base: tcpRecv,
				Curves: []Curve{
					{Label: "mcs lock", Set: mcsLocks},
					{Label: "ticket lock", Set: func(c *core.Config) { c.LockKind = sim.KindTicket }},
				},
				Views: []View{{Title: "Ablation: FIFO lock kind, MCS vs ticket (TCP recv, 4KB, checksum on)"}},
			}},
		},
		{
			ID:      "ablation-mapcache",
			Figures: "(ablation)",
			Brief:   "Map manager 1-behind cache on vs off (UDP recv)",
			Sweeps: []Sweep{{
				Base: udpRecv,
				Curves: []Curve{
					{Label: "1-behind cache on"},
					{Label: "1-behind cache off", Set: func(c *core.Config) { c.MapCache = false }},
				},
				Views: []View{{Title: "Ablation: map manager 1-behind cache (UDP recv, 4KB)"}},
			}},
		},
		{
			ID:      "ablation-ackrate",
			Figures: "(ablation)",
			Brief:   "Simulated receiver acks every vs every-other packet (TCP send)",
			Sweeps: []Sweep{{
				Base: tcpSend,
				Curves: []Curve{
					{Label: "ack every 2 packets"},
					{Label: "ack every 1 packets", Set: func(c *core.Config) { c.AckEvery = 1 }},
				},
				Views: []View{{Title: "Ablation: simulated receiver ack rate (TCP send, 4KB, checksum on)"}},
			}},
		},
		{
			ID:      "ablation-hdrpred",
			Figures: "(ablation)",
			Brief:   "Header prediction on vs off (TCP recv, in-order arrivals)",
			Sweeps: []Sweep{{
				Base: with(tcpRecv, mcsLocks), // keep arrivals in order
				Curves: []Curve{
					{Label: "header prediction on"},
					{Label: "header prediction off", Set: func(c *core.Config) { c.NoHeaderPrediction = true }},
				},
				Views: []View{{Title: "Ablation: header prediction (TCP recv, 4KB, checksum on, MCS)"}},
			}},
		},
		{
			// Figure 12 with a fraction of every processor's traffic sent to
			// connection 0: the hot connection's state lock is a shared
			// bottleneck again, which quantifies how 'idealized' the
			// uniform multi-connection test is (Section 4.3).
			ID:      "ext-skew",
			Figures: "(extension)",
			Brief:   "Multi-connection TCP send with skewed traffic — the paper calls its uniform test 'idealized'",
			Sweeps: []Sweep{{
				Base:        with(tcpSend, mcsLocks),
				ConnPerProc: true,
				Curves: []Curve{
					{Label: "0% of traffic to one connection"},
					{Label: "25% of traffic to one connection", Set: func(c *core.Config) { c.Workload.HotConnPct = 25 }},
					{Label: "50% of traffic to one connection", Set: func(c *core.Config) { c.Workload.HotConnPct = 50 }},
				},
				Views: []View{{Title: "Extension: multi-connection TCP send under skewed traffic (4KB, checksum on)"}},
			}},
		},
		{
			// The three strategies the paper's Section 1 surveys, head to
			// head on TCP receive over four connections. Packet-level
			// processes any packet on any processor; connection-level binds
			// each connection to an owner (Multiprocessor STREAMS style), so
			// it cannot use more processors than connections but preserves
			// order by construction; layered pipelines the protocol layers
			// across processors and pays a context switch per boundary (the
			// Schmidt & Suda comparison). Section 8 names this future work.
			ID:      "ext-strategies",
			Figures: "(extension; paper §1 & §8 future work)",
			Brief:   "Packet-level vs connection-level vs layered parallelism (TCP recv, 4 connections)",
			Sweeps: []Sweep{{
				Base: with(tcpRecv, func(c *core.Config) { c.LockKind, c.Connections = sim.KindMCS, 4 }),
				Curves: []Curve{
					{Label: "packet-level"},
					{Label: "connection-level", Set: func(c *core.Config) { c.Strategy = core.StrategyConnection }},
					{Label: "layered", Set: func(c *core.Config) { c.Strategy = core.StrategyLayered }},
				},
				Views: []View{{Title: "Extension: parallelization strategies compared (TCP recv, 4 connections, 4KB, checksum on)"}},
			}},
		},
		{
			ID:      "ext-loss",
			Figures: "(extension; fault-injection wire)",
			Brief:   "TCP and UDP throughput under deterministic loss/corruption: spin vs MCS as recovery bursts amplify misordering",
			Sweeps:  lossSweeps(),
		},
		{
			ID:      "ext-steer",
			Figures: "(extension; internal/steer + internal/workload)",
			Brief:   "Receive-side flow steering: packet-level vs RSS vs Flow Director vs rebalancing under many-connection heavy traffic",
			Sweeps:  steerSweeps(),
			Extra:   runSteerLadders,
		},
		{
			ID:      "ext-batch",
			Figures: "(extension; receive-side GRO batching)",
			Brief:   "Receive-side segment coalescing: batch size vs lock kind vs skew, plus steering + batching combined",
			Sweeps:  batchSweeps(),
			Extra:   runBatchSteered,
		},
		{
			ID:      "ext-scale",
			Figures: "(extension; connection-count scale-out)",
			Brief:   "Million-flow scale-out: TCP receive flat across idle connections, steered UDP swept 1k-1M connections",
			Extra:   runExtScale,
		},
		{
			ID:      "ext-host",
			Figures: "(extension; execution substrate)",
			Brief:   "Sim-vs-host cross-validation: the TCP-1 mutex/MCS/conn-per-proc sweep on both substrates, with shape agreement",
			Extra:   runExtHost,
		},
	}
}

// Catalog returns all experiments in paper order.
func Catalog() []Spec { return specs() }

// Lookup finds an experiment by ID; it also accepts any figure alias
// like "fig2" or "fig17".
func Lookup(id string) (Spec, bool) {
	alias := map[string]string{
		"fig2": "fig02-03", "fig3": "fig02-03",
		"fig4": "fig04-05", "fig5": "fig04-05",
		"fig6": "fig06-07", "fig7": "fig06-07",
		"fig8": "fig08-09", "fig9": "fig08-09",
		"fig17": "fig17-18", "fig18": "fig17-18",
	}
	if a, ok := alias[id]; ok {
		id = a
	}
	for _, s := range specs() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// IDs returns the sorted list of experiment IDs.
func IDs() []string {
	var ids []string
	for _, s := range specs() {
		ids = append(ids, s.ID)
	}
	sort.Strings(ids)
	return ids
}
