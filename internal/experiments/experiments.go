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

// Spec is one runnable experiment.
type Spec struct {
	ID      string // catalog key, e.g. "fig02-03"
	Figures string // what in the paper it regenerates
	Brief   string
	Run     func(p Params) ([]measure.Table, error)
}

// point runs one configuration, returning the throughput summary.
func point(cfg core.Config, p Params) (measure.Result, core.RunResult, error) {
	pv, err := submitPoint(cfg, p).wait()
	return pv.res, pv.agg, err
}

// sweepProcs measures cfg at 1..maxProcs processors, fanning the
// points across the worker pool.
func sweepProcs(cfg core.Config, p Params, maxProcs int) (measure.Series, error) {
	return awaitSeries("", submitSweep(cfg, p, maxProcs))
}

// fourCurves runs the paper's standard curve family: {4K,1K} packets x
// checksum {off,on}. All four sweeps are in flight at once.
func fourCurves(base core.Config, p Params) ([]measure.Series, error) {
	type variant struct {
		label string
		size  int
		ck    bool
	}
	variants := []variant{
		{"4K Byte Packets, Checksum Off", 4096, false},
		{"4K Byte Packets, Checksum On", 4096, true},
		{"1K Byte Packets, Checksum Off", 1024, false},
		{"1K Byte Packets, Checksum On", 1024, true},
	}
	var labels []string
	var futs [][]*pointFuture
	for _, v := range variants {
		cfg := base
		cfg.PacketSize = v.size
		cfg.Checksum = v.ck
		labels = append(labels, v.label)
		futs = append(futs, submitSweep(cfg, p, p.MaxProcs))
	}
	return awaitAll(labels, futs)
}

// throughputAndSpeedup renders the two standard tables from one sweep.
func throughputAndSpeedup(tputTitle, spdupTitle string, series []measure.Series) []measure.Table {
	return []measure.Table{
		{Title: tputTitle, XLabel: "procs", YLabel: "Mbit/s", Series: series},
		{Title: spdupTitle, XLabel: "procs", YLabel: "relative speedup", Series: series, Speedup: true},
	}
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

// specs builds the full catalog.
func specs() []Spec {
	return []Spec{
		{
			ID:      "fig02-03",
			Figures: "Figures 2 and 3",
			Brief:   "UDP send-side throughput and speedup, single connection",
			Run: func(p Params) ([]measure.Table, error) {
				series, err := fourCurves(baselineUDP(core.SideSend), p)
				if err != nil {
					return nil, err
				}
				return throughputAndSpeedup(
					"Figure 2: UDP Send Side Throughputs",
					"Figure 3: UDP Send Side Speedup", series), nil
			},
		},
		{
			ID:      "fig04-05",
			Figures: "Figures 4 and 5",
			Brief:   "UDP receive-side throughput and speedup, single connection",
			Run: func(p Params) ([]measure.Table, error) {
				series, err := fourCurves(baselineUDP(core.SideRecv), p)
				if err != nil {
					return nil, err
				}
				return throughputAndSpeedup(
					"Figure 4: UDP Receive Side Throughputs",
					"Figure 5: UDP Receive Side Speedup", series), nil
			},
		},
		{
			ID:      "fig06-07",
			Figures: "Figures 6 and 7",
			Brief:   "TCP-1 send-side throughput and speedup, single connection, mutex state lock",
			Run: func(p Params) ([]measure.Table, error) {
				series, err := fourCurves(baselineTCP(core.SideSend), p)
				if err != nil {
					return nil, err
				}
				for i := range series {
					series[i].Label = "TCP1 " + series[i].Label
				}
				return throughputAndSpeedup(
					"Figure 6: TCP Send Side Throughputs",
					"Figure 7: TCP Send Side Speedup", series), nil
			},
		},
		{
			ID:      "fig08-09",
			Figures: "Figures 8 and 9",
			Brief:   "TCP-1 receive-side throughput and speedup: the misordering dip beyond 4-5 CPUs",
			Run: func(p Params) ([]measure.Table, error) {
				series, err := fourCurves(baselineTCP(core.SideRecv), p)
				if err != nil {
					return nil, err
				}
				return throughputAndSpeedup(
					"Figure 8: TCP Receive Side Throughputs",
					"Figure 9: TCP Receive Side Speedup", series), nil
			},
		},
		{
			ID:      "fig10",
			Figures: "Figure 10",
			Brief:   "Ordering effects in TCP receive: assumed-in-order vs MCS locks vs mutex locks (4KB, checksum on)",
			Run:     runFig10,
		},
		{
			ID:      "table1",
			Figures: "Table 1",
			Brief:   "Percentage of packets out-of-order at TCP: mutex vs MCS locks (recv, 4KB, checksum on)",
			Run:     runTable1,
		},
		{
			ID:      "fig11",
			Figures: "Figure 11",
			Brief:   "Ticketing effects in TCP receive: order-requiring application vs not (4KB)",
			Run:     runFig11,
		},
		{
			ID:      "fig12",
			Figures: "Figure 12",
			Brief:   "TCP with multiple connections: one connection per processor, MCS locks, 4KB",
			Run:     runFig12,
		},
		{
			ID:      "fig13",
			Figures: "Figure 13",
			Brief:   "TCP send-side locking comparison: TCP-1 vs TCP-2 vs TCP-6 (MCS locks, checksum on)",
			Run: func(p Params) ([]measure.Table, error) {
				return runLockingComparison(p, core.SideSend,
					"Figure 13: TCP Send-Side Locking Comparison")
			},
		},
		{
			ID:      "fig14",
			Figures: "Figure 14",
			Brief:   "TCP receive-side locking comparison: TCP-1 vs TCP-2 vs TCP-6 (MCS locks, checksum on)",
			Run: func(p Params) ([]measure.Table, error) {
				return runLockingComparison(p, core.SideRecv,
					"Figure 14: TCP Receive-Side Locking Comparison")
			},
		},
		{
			ID:      "fig15",
			Figures: "Figure 15",
			Brief:   "Atomic increment/decrement vs lock-based refcounts (TCP, 4KB, checksum on)",
			Run:     runFig15,
		},
		{
			ID:      "fig16",
			Figures: "Figure 16",
			Brief:   "Per-processor message caching vs global arena (TCP, 4KB, checksum on)",
			Run:     runFig16,
		},
		{
			ID:      "fig17-18",
			Figures: "Figures 17 and 18",
			Brief:   "TCP receive throughput and speedup across machine generations",
			Run:     runFig17,
		},
		{
			ID:      "sec3.2-checksum",
			Figures: "Section 3.2 (text)",
			Brief:   "Checksum micro-benchmark: per-CPU bandwidth and implied bus headroom",
			Run:     runChecksumMicro,
		},
		{
			ID:      "sec3-wiring",
			Figures: "Section 3 (text)",
			Brief:   "Wired vs unwired threads (UDP send): wiring changes little",
			Run:     runWiring,
		},
		{
			ID:      "sec3.1-maplock",
			Figures: "Section 3.1 (text)",
			Brief:   "Demultiplexing with vs without map locks (~10% effect)",
			Run:     runMapLock,
		},
		{
			ID:      "sec4.1-wireorder",
			Figures: "Section 4.1 (text)",
			Brief:   "Send-side misordering below TCP (<1% up to 8 CPUs)",
			Run:     runWireOrder,
		},
		{
			ID:      "ablation-fifo",
			Figures: "(ablation)",
			Brief:   "FIFO lock kind: MCS vs ticket lock (TCP recv, 4KB, checksum on)",
			Run:     runAblationFIFO,
		},
		{
			ID:      "ablation-mapcache",
			Figures: "(ablation)",
			Brief:   "Map manager 1-behind cache on vs off (UDP recv)",
			Run:     runAblationMapCache,
		},
		{
			ID:      "ablation-ackrate",
			Figures: "(ablation)",
			Brief:   "Simulated receiver acks every vs every-other packet (TCP send)",
			Run:     runAblationAckRate,
		},
		{
			ID:      "ablation-hdrpred",
			Figures: "(ablation)",
			Brief:   "Header prediction on vs off (TCP recv, in-order arrivals)",
			Run:     runAblationHeaderPred,
		},
		{
			ID:      "ext-skew",
			Figures: "(extension)",
			Brief:   "Multi-connection TCP send with skewed traffic — the paper calls its uniform test 'idealized'",
			Run:     runExtSkew,
		},
		{
			ID:      "ext-strategies",
			Figures: "(extension; paper §1 & §8 future work)",
			Brief:   "Packet-level vs connection-level vs layered parallelism (TCP recv, 4 connections)",
			Run:     runExtStrategies,
		},
		{
			ID:      "ext-loss",
			Figures: "(extension; fault-injection wire)",
			Brief:   "TCP and UDP throughput under deterministic loss/corruption: spin vs MCS as recovery bursts amplify misordering",
			Run:     runExtLoss,
		},
		{
			ID:      "ext-steer",
			Figures: "(extension; internal/steer + internal/workload)",
			Brief:   "Receive-side flow steering: packet-level vs RSS vs Flow Director vs rebalancing under many-connection heavy traffic",
			Run:     runExtSteer,
		},
		{
			ID:      "ext-batch",
			Figures: "(extension; receive-side GRO batching)",
			Brief:   "Receive-side segment coalescing: batch size vs lock kind vs skew, plus steering + batching combined",
			Run:     runExtBatch,
		},
		{
			ID:      "ext-scale",
			Figures: "(extension; hierarchical timing wheel + pooled state)",
			Brief:   "Million-flow scale-out: idle-connection timer cost scan vs wheel, steered UDP swept 1k-1M connections",
			Run:     runExtScale,
		},
		{
			ID:      "ext-host",
			Figures: "(extension; execution substrate)",
			Brief:   "Sim-vs-host cross-validation: the TCP-1 mutex/MCS/conn-per-proc sweep on both substrates, with shape agreement",
			Run:     runExtHost,
		},
		{
			ID:      "ablation-wheel",
			Figures: "(ablation)",
			Brief:   "Timing wheel: per-chain locks vs one lock (TCP send)",
			Run:     runAblationWheel,
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

// ---- individual experiments ----

func runFig10(p Params) ([]measure.Table, error) {
	base := baselineTCP(core.SideRecv)
	base.PacketSize = 4096
	base.Checksum = true

	inOrder := base
	inOrder.AssumeInOrder = true
	mcs := base
	mcs.LockKind = sim.KindMCS
	series, err := awaitAll(
		[]string{"TCP-1 Assumed In-Order", "TCP-1 MCS Locks", "TCP-1 Mutex Locks"},
		[][]*pointFuture{
			submitSweep(inOrder, p, p.MaxProcs),
			submitSweep(mcs, p, p.MaxProcs),
			submitSweep(base, p, p.MaxProcs),
		})
	if err != nil {
		return nil, err
	}

	return []measure.Table{{
		Title:  "Figure 10: Ordering Effects in TCP (recv, 4KB, checksum on)",
		XLabel: "procs", Series: series,
	}}, nil
}

func runTable1(p Params) ([]measure.Table, error) {
	base := baselineTCP(core.SideRecv)
	base.PacketSize = 4096
	base.Checksum = true
	muCfg := base
	muCfg.LockKind = sim.KindMutex
	mcCfg := base
	mcCfg.LockKind = sim.KindMCS
	muFuts := submitSweep(muCfg, p, p.MaxProcs)
	mcFuts := submitSweep(mcCfg, p, p.MaxProcs)
	oooPct := func(agg core.RunResult) float64 { return agg.OOOPct }
	mu, err := awaitAggSeries("Mutex Locks (% OOO)", muFuts, oooPct)
	if err != nil {
		return nil, err
	}
	mc, err := awaitAggSeries("MCS Locks (% OOO)", mcFuts, oooPct)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Table 1: Percentage of packets out-of-order at TCP (recv, 4KB, checksum on)",
		XLabel: "procs", YLabel: "% out-of-order",
		Series: []measure.Series{mu, mc},
	}}, nil
}

func runFig11(p Params) ([]measure.Table, error) {
	base := baselineTCP(core.SideRecv)
	base.PacketSize = 4096
	base.LockKind = sim.KindMCS
	var labels []string
	var futs [][]*pointFuture
	for _, v := range []struct {
		label  string
		ck     bool
		ticket bool
	}{
		{"Checksum Off, No Ticketing", false, false},
		{"Checksum On, No Ticketing", true, false},
		{"Checksum Off, With Ticketing", false, true},
		{"Checksum On, With Ticketing", true, true},
	} {
		cfg := base
		cfg.Checksum = v.ck
		cfg.Ticketing = v.ticket
		labels = append(labels, v.label)
		futs = append(futs, submitSweep(cfg, p, p.MaxProcs))
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Figure 11: Ticketing Effects in TCP (recv, 4KB)",
		XLabel: "procs", Series: series,
	}}, nil
}

func runFig12(p Params) ([]measure.Table, error) {
	var labels []string
	var futs [][]*pointFuture
	for _, v := range []struct {
		label string
		side  core.Side
		ck    bool
	}{
		{"Recv-side, Checksum Off", core.SideRecv, false},
		{"Recv-side, Checksum On", core.SideRecv, true},
		{"Send-side, Checksum Off", core.SideSend, false},
		{"Send-side, Checksum On", core.SideSend, true},
	} {
		cfg := baselineTCP(v.side)
		cfg.PacketSize = 4096
		cfg.Checksum = v.ck
		cfg.LockKind = sim.KindMCS
		cfg.Connections = 2 // sentinel: submitSweep sets Connections = procs
		labels = append(labels, v.label)
		futs = append(futs, submitSweep(cfg, p, p.MaxProcs))
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Figure 12: TCP with Multiple Connections (one per processor, MCS, 4KB)",
		XLabel: "procs", Series: series,
	}}, nil
}

func runLockingComparison(p Params, side core.Side, title string) ([]measure.Table, error) {
	var labels []string
	var futs [][]*pointFuture
	for _, lay := range []tcp.Layout{tcp.Layout1, tcp.Layout2, tcp.Layout6} {
		for _, size := range []int{4096, 1024} {
			cfg := baselineTCP(side)
			cfg.PacketSize = size
			cfg.Checksum = true
			cfg.Layout = lay
			cfg.LockKind = sim.KindMCS
			labels = append(labels, fmt.Sprintf("%v %dKB Packets", lay, size/1024))
			futs = append(futs, submitSweep(cfg, p, p.MaxProcs))
		}
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{Title: title, XLabel: "procs", Series: series}}, nil
}

func runFig15(p Params) ([]measure.Table, error) {
	var labels []string
	var futs [][]*pointFuture
	for _, v := range []struct {
		label string
		side  core.Side
		mode  sim.RefMode
	}{
		{"Recv-side, Atomic Ops", core.SideRecv, sim.RefAtomic},
		{"Recv-side, No Atomic Ops", core.SideRecv, sim.RefLocked},
		{"Send-side, Atomic Ops", core.SideSend, sim.RefAtomic},
		{"Send-side, No Atomic Ops", core.SideSend, sim.RefLocked},
	} {
		cfg := baselineTCP(v.side)
		cfg.PacketSize = 4096
		cfg.Checksum = true
		cfg.RefMode = v.mode
		labels = append(labels, v.label)
		futs = append(futs, submitSweep(cfg, p, p.MaxProcs))
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Figure 15: TCP Atomic Operations Impact (4KB, checksum on)",
		XLabel: "procs", Series: series,
	}}, nil
}

func runFig16(p Params) ([]measure.Table, error) {
	var labels []string
	var futs [][]*pointFuture
	for _, v := range []struct {
		label string
		side  core.Side
		cache bool
	}{
		{"Recv-side, Messages Cached", core.SideRecv, true},
		{"Recv-side, Messages Not Cached", core.SideRecv, false},
		{"Send-side, Messages Cached", core.SideSend, true},
		{"Send-side, Messages Not Cached", core.SideSend, false},
	} {
		cfg := baselineTCP(v.side)
		cfg.PacketSize = 4096
		cfg.Checksum = true
		cfg.MsgCache = v.cache
		labels = append(labels, v.label)
		futs = append(futs, submitSweep(cfg, p, p.MaxProcs))
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Figure 16: TCP Message Caching Impact (4KB, checksum on)",
		XLabel: "procs", Series: series,
	}}, nil
}

func runFig17(p Params) ([]measure.Table, error) {
	var labels []string
	var futs [][]*pointFuture
	for _, m := range cost.Machines {
		maxP := p.MaxProcs
		if m.SyncBus && maxP > 4 {
			maxP = 4 // the Power Series had four processors
		}
		for _, ck := range []bool{false, true} {
			cfg := baselineTCP(core.SideRecv)
			cfg.PacketSize = 4096
			cfg.Checksum = ck
			cfg.Machine = m
			lbl := "Checksum Off"
			if ck {
				lbl = "Checksum On"
			}
			labels = append(labels, fmt.Sprintf("%s, %s", m.Name, lbl))
			futs = append(futs, submitSweep(cfg, p, maxP))
		}
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{
		{Title: "Figure 17: TCP Throughputs across Architectures (recv, 4KB)",
			XLabel: "procs", Series: series},
		{Title: "Figure 18: TCP Speedups across Architectures (recv, 4KB)",
			XLabel: "procs", YLabel: "relative speedup", Series: series, Speedup: true},
	}, nil
}

func runWiring(p Params) ([]measure.Table, error) {
	var labels []string
	var futs [][]*pointFuture
	for _, wired := range []bool{true, false} {
		cfg := baselineUDP(core.SideSend)
		cfg.PacketSize = 4096
		cfg.Checksum = true
		cfg.Wired = wired
		if wired {
			labels = append(labels, "Threads Wired to Processors")
		} else {
			labels = append(labels, "Threads Unwired")
		}
		futs = append(futs, submitSweep(cfg, p, p.MaxProcs))
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Section 3: Wired vs Unwired Threads (UDP send, 4KB, checksum on)",
		XLabel: "procs", Series: series,
	}}, nil
}

func runMapLock(p Params) ([]measure.Table, error) {
	var labels []string
	var futs [][]*pointFuture
	for _, locked := range []bool{true, false} {
		cfg := baselineUDP(core.SideRecv)
		cfg.PacketSize = 4096
		cfg.Checksum = true
		cfg.MapLocking = locked
		if locked {
			labels = append(labels, "Maps Locked")
		} else {
			labels = append(labels, "Maps Not Locked")
		}
		futs = append(futs, submitSweep(cfg, p, p.MaxProcs))
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Section 3.1: Demultiplexing With vs Without Map Locks (UDP recv, 4KB)",
		XLabel: "procs", Series: series,
	}}, nil
}

func runWireOrder(p Params) ([]measure.Table, error) {
	cfg := baselineTCP(core.SideSend)
	cfg.PacketSize = 4096
	cfg.Checksum = true
	s, err := awaitAggSeries("% misordered on the wire",
		submitSweep(cfg, p, p.MaxProcs),
		func(agg core.RunResult) float64 { return agg.WireOOOPct })
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Section 4.1: Send-side misordering below TCP (4KB, checksum on)",
		XLabel: "procs", YLabel: "% out-of-order", Series: []measure.Series{s},
	}}, nil
}

func runChecksumMicro(p Params) ([]measure.Table, error) {
	// Per-CPU checksum bandwidth over cache-busting data: in the cost
	// model this is a direct property; the experiment validates it by
	// running concurrent checksum loops on the engine and reporting
	// per-processor MB/s, as Section 3.2 does (32 MB/s per CPU, an
	// implied bus capacity of ~38 checksumming processors).
	slots := workerSlots(p.workers())
	futs := make([]*future[float64], p.MaxProcs)
	for n := 1; n <= p.MaxProcs; n++ {
		n := n
		futs[n-1] = submit(slots, func() (float64, error) {
			return checksumBandwidth(n, p)
		})
	}
	var agg, per measure.Series
	agg.Label = "Aggregate MB/s"
	per.Label = "Per-CPU MB/s"
	for i, f := range futs {
		n := i + 1
		mbps, err := f.wait()
		if err != nil {
			return nil, err
		}
		agg.X = append(agg.X, n)
		agg.Points = append(agg.Points, measure.Result{Mean: mbps})
		per.X = append(per.X, n)
		per.Points = append(per.Points, measure.Result{Mean: mbps / float64(n)})
	}
	return []measure.Table{{
		Title:  "Section 3.2: Checksumming micro-benchmark (cache-missing data)",
		XLabel: "procs", YLabel: "MB/s", Series: []measure.Series{agg, per},
	}}, nil
}

func runAblationFIFO(p Params) ([]measure.Table, error) {
	var labels []string
	var futs [][]*pointFuture
	for _, kind := range []sim.LockKind{sim.KindMCS, sim.KindTicket} {
		cfg := baselineTCP(core.SideRecv)
		cfg.PacketSize = 4096
		cfg.Checksum = true
		cfg.LockKind = kind
		labels = append(labels, kind.String()+" lock")
		futs = append(futs, submitSweep(cfg, p, p.MaxProcs))
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Ablation: FIFO lock kind, MCS vs ticket (TCP recv, 4KB, checksum on)",
		XLabel: "procs", Series: series,
	}}, nil
}

func runAblationMapCache(p Params) ([]measure.Table, error) {
	var labels []string
	var futs [][]*pointFuture
	for _, cache := range []bool{true, false} {
		cfg := baselineUDP(core.SideRecv)
		cfg.PacketSize = 4096
		cfg.Checksum = true
		cfg.MapCache = cache
		if cache {
			labels = append(labels, "1-behind cache on")
		} else {
			labels = append(labels, "1-behind cache off")
		}
		futs = append(futs, submitSweep(cfg, p, p.MaxProcs))
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Ablation: map manager 1-behind cache (UDP recv, 4KB)",
		XLabel: "procs", Series: series,
	}}, nil
}

func runAblationAckRate(p Params) ([]measure.Table, error) {
	var labels []string
	var futs [][]*pointFuture
	for _, every := range []int{2, 1} {
		cfg := baselineTCP(core.SideSend)
		cfg.PacketSize = 4096
		cfg.Checksum = true
		cfg.AckEvery = every
		labels = append(labels, fmt.Sprintf("ack every %d packets", every))
		futs = append(futs, submitSweep(cfg, p, p.MaxProcs))
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Ablation: simulated receiver ack rate (TCP send, 4KB, checksum on)",
		XLabel: "procs", Series: series,
	}}, nil
}

func runAblationHeaderPred(p Params) ([]measure.Table, error) {
	var labels []string
	var futs [][]*pointFuture
	for _, off := range []bool{false, true} {
		cfg := baselineTCP(core.SideRecv)
		cfg.PacketSize = 4096
		cfg.Checksum = true
		cfg.LockKind = sim.KindMCS // keep arrivals in order
		cfg.NoHeaderPrediction = off
		if off {
			labels = append(labels, "header prediction off")
		} else {
			labels = append(labels, "header prediction on")
		}
		futs = append(futs, submitSweep(cfg, p, p.MaxProcs))
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Ablation: header prediction (TCP recv, 4KB, checksum on, MCS)",
		XLabel: "procs", Series: series,
	}}, nil
}

func runAblationWheel(p Params) ([]measure.Table, error) {
	var labels []string
	var futs [][]*pointFuture
	for _, perChain := range []bool{true, false} {
		cfg := baselineTCP(core.SideSend)
		cfg.PacketSize = 4096
		cfg.Checksum = true
		cfg.WheelPerChain = perChain
		if perChain {
			labels = append(labels, "per-chain wheel locks")
		} else {
			labels = append(labels, "single wheel lock")
		}
		futs = append(futs, submitSweep(cfg, p, p.MaxProcs))
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Ablation: timing wheel locking (TCP send, 4KB, checksum on)",
		XLabel: "procs", Series: series,
	}}, nil
}

// runExtSkew extends Figure 12: one connection per processor, but a
// fraction of every processor's traffic goes to connection 0. The hot
// connection's state lock becomes a shared bottleneck again, eroding
// the multi-connection win — quantifying how 'idealized' the uniform
// test is (Section 4.3).
func runExtSkew(p Params) ([]measure.Table, error) {
	var labels []string
	var futs [][]*pointFuture
	for _, skew := range []int{0, 25, 50} {
		cfg := baselineTCP(core.SideSend)
		cfg.PacketSize = 4096
		cfg.Checksum = true
		cfg.LockKind = sim.KindMCS
		cfg.Connections = 2 // sentinel: submitSweep sets Connections = procs
		cfg.HotConnPct = skew
		labels = append(labels, fmt.Sprintf("%d%% of traffic to one connection", skew))
		futs = append(futs, submitSweep(cfg, p, p.MaxProcs))
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Extension: multi-connection TCP send under skewed traffic (4KB, checksum on)",
		XLabel: "procs", Series: series,
	}}, nil
}

// runExtStrategies compares the three parallelization strategies the
// paper's Section 1 surveys, head to head on the same workload: TCP
// receive over four connections. Packet-level processes any packet on
// any processor; connection-level binds each connection to an owner
// (Multiprocessor STREAMS style) and so cannot use more processors than
// connections, but preserves order by construction; layered pipelines
// the protocol layers across processors and pays a context switch per
// boundary (the Schmidt & Suda comparison). Examining these strategies
// is the future work named in Section 8.
func runExtStrategies(p Params) ([]measure.Table, error) {
	const conns = 4
	var labels []string
	var futs [][]*pointFuture
	for _, strat := range []core.Strategy{
		core.StrategyPacket, core.StrategyConnection, core.StrategyLayered,
	} {
		// Connections stays fixed at 4 across the sweep, so the points
		// are submitted individually rather than through submitSweep
		// (whose Connections-follow-procs rule would override it).
		fs := make([]*pointFuture, 0, p.MaxProcs)
		for n := 1; n <= p.MaxProcs; n++ {
			cfg := baselineTCP(core.SideRecv)
			cfg.PacketSize = 4096
			cfg.Checksum = true
			cfg.LockKind = sim.KindMCS
			cfg.Connections = conns
			cfg.Strategy = strat
			cfg.Procs = n
			cfg.Seed = p.Seed
			fs = append(fs, submitPoint(cfg, p))
		}
		labels = append(labels, strat.String())
		futs = append(futs, fs)
	}
	series, err := awaitAll(labels, futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title:  "Extension: parallelization strategies compared (TCP recv, 4 connections, 4KB, checksum on)",
		XLabel: "procs", Series: series,
	}}, nil
}
