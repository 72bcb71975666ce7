package main

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/steer"
)

// workload is one set of inputs the benchmark runs. The stack only ever
// sees the generated core.Config (or, for the catalogue workload, the
// generated experiments.Params).
type workload struct {
	name string
	why  string
	// multiP workloads run at GOMAXPROCS=min(nproc,4). The rest pin 1: a
	// sim engine resumes exactly one goroutine at a time, and one thread
	// is what a shared host's other tenants disturb least - with more Ps
	// the same runs turn bimodal and slower, and separate processes
	// disagree by tens of percent whenever a neighbour takes a core.
	multiP bool
	// warmNs and measNs are virtual nanoseconds (wall-clock on the host
	// backend), sized so one full pass costs about half a host second
	// (set-up aside) and a run's medians rest on many reps.
	warmNs, measNs int64
	// setupPasses repeats the set-up-only pass within a rep: a set-up
	// of tens of microseconds is only timeable in bulk.
	setupPasses int
	// setupMeasNs is the measurement interval of the set-up-only pass:
	// 1 ns (set-up and teardown only) unless a workload needs otherwise.
	setupMeasNs int64
	// config generates the stack configuration from the seed; nil marks
	// the experiments-catalogue workload.
	config func(seed uint64) core.Config
}

// gomaxprocs returns the GOMAXPROCS of the workload's end-to-end or
// traced run. The catalogue's traced run is the pool at one worker
// against the pool at one worker per P, so it runs multi-P too.
func (w *workload) gomaxprocs(traced bool) int {
	if w.multiP || traced && w.catalogue() {
		return multiPs()
	}
	return 1
}

func multiPs() int { return min(runtime.NumCPU(), 4) }

func (w *workload) catalogue() bool { return w.config == nil }

func (w *workload) hostBackend() bool {
	return w.config != nil && w.config(0).Backend == sim.BackendHost
}

// paperFigs are the catalogue IDs the paper-figs workload regenerates:
// every table and figure of the paper's evaluation.
var paperFigs = []string{"fig02-03", "fig04-05", "fig06-07", "fig08-09", "fig10", "table1",
	"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17-18"}

const paperFigsMaxProcs = 8

func baseConfig(seed uint64, proto core.Proto, side core.Side, procs, size int) core.Config {
	cfg := core.DefaultConfig() // TCP-1, unfair mutex, checksum on, message cache on
	cfg.Seed = seed
	cfg.Proto, cfg.Side, cfg.Procs, cfg.PacketSize = proto, side, procs, size
	return cfg
}

var workloads = []workload{
	{
		name: "tcp-recv-1conn-8p",
		why: "Paper headline (Fig 8-9, Table 1): one TCP connection shared by 8 procs; state-lock wait and " +
			"misordering dominate, every contended lock is a goroutine park/resume.",
		warmNs: 100e6, measNs: 20e9, setupPasses: 200,
		config: func(seed uint64) core.Config {
			return baseConfig(seed, core.ProtoTCP, core.SideRecv, 8, 4096)
		},
	},
	{
		name: "udp-recv-1p-1k",
		why: "Smallest paper packet, one proc: per-packet cost of fddi/ip/udp/chksum/msg/xmap; no locks contend, " +
			"no TCP, no steering - the bypass workload for handoff, lock and steering changes.",
		warmNs: 100e6, measNs: 200e9, setupPasses: 200,
		config: func(seed uint64) core.Config {
			return baseConfig(seed, core.ProtoUDP, core.SideRecv, 1, 1024)
		},
	},
	{
		name: "tcp-send-8conn-8p",
		why: "Same tcp/sim layers used differently: output path, ack processing, timers, one connection per proc " +
			"and no shared state lock - a receive-side gain that costs the send path shows here.",
		warmNs: 100e6, measNs: 8e9, setupPasses: 200,
		config: func(seed uint64) core.Config {
			cfg := baseConfig(seed, core.ProtoTCP, core.SideSend, 8, 4096)
			cfg.Connections = 8
			return cfg
		},
	},
	{
		name: "steer-1m-skew-8p",
		why: "Working set far beyond the flow table: 1M connections, Flow Director, skewed churning flows, GRO " +
			"batching; steer/workload/xmap/driver and core set-up (about 1 s, 400 MB) do the work.",
		warmNs: 100e6, measNs: 6e9, setupPasses: 1,
		config: func(seed uint64) core.Config {
			cfg := baseConfig(seed, core.ProtoUDP, core.SideRecv, 8, 1024)
			cfg.Connections = 1_000_000
			cfg.Steer = steer.Config{Enabled: true, Policy: steer.PolicyFlowDirector, RingCapacity: 1024}
			cfg.Workload.ArrivalGapNs = 150_000 / 8
			cfg.Workload.MeanFlowPkts = 512
			cfg.Workload.HotConnPct, cfg.Workload.HotConns = 20, 4
			cfg.Workload.AppMoveEvery = 256
			cfg.Workload.CompactSlots = 8192
			cfg.Batch = msg.BatchConfig{Enabled: true, MaxSegs: 8}
			return cfg
		},
	},
	{
		name: "host-tcp-recv-2p",
		why: "The second substrate: real goroutines, real sync locks, wall-clock Mb/s - the protocol code's true " +
			"per-packet cost with no engine underneath, and the number host-mode parity work moves.",
		multiP: true,
		warmNs: 100e6, measNs: 500e6, setupPasses: 5,
		// On the host backend Run returns when the event-manager thread
		// notices Stop, at its next 10 ms wall-clock tick - or at once if
		// a 1 ns run ends before that thread was first scheduled, which
		// made set-up passes take 0.2 ms or 10.4 ms by a race. 12 ms
		// always crosses the first tick, so every pass ends at the second.
		setupMeasNs: 12e6,
		config: func(seed uint64) core.Config {
			cfg := baseConfig(seed, core.ProtoTCP, core.SideRecv, min(2, runtime.NumCPU()), 4096)
			cfg.Backend = sim.BackendHost
			return cfg
		},
	},
	{
		name: "paper-figs",
		why: "What a user runs: regenerate the paper's 13 tables and figures, 432 engines one after another " +
			"through the experiments pool; an output digest keeps the goldens honest.",
		warmNs: 25e6, measNs: 50e6, setupPasses: 5,
	},
}

// short returns the workload scaled for `go test -short`: 50 ms of
// virtual (or wall) time, and the million connections cut to 10k.
func (w workload) short() workload {
	w.warmNs, w.measNs, w.setupPasses, w.setupMeasNs = 10e6, 50e6, 1, 0
	if cfg := w.config; cfg != nil {
		w.config = func(seed uint64) core.Config {
			c := cfg(seed)
			c.Connections = min(c.Connections, 10_000)
			return c
		}
	}
	return w
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
