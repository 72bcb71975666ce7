package experiments

// ext-steer: receive-side flow steering. The paper's packet-level UDP
// stacks hand every frame to any idle processor; modern adaptors
// instead hash flows onto processors (RSS), remember exact flows
// (Flow Director), or rebalance hash buckets when load skews. These
// points replay that design space inside the simulator: the same
// many-connection heavy-traffic workload runs under each policy, and
// the tables show the throughput, the per-processor load imbalance,
// and — in the Table-1 tradition — the misordering each policy's
// migrations admit (the Wu et al. mechanism: a flow's packets land on
// a new processor while older packets still sit in the old queue).

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/steer"
)

// steerGapNs is the one-processor mean inter-arrival gap; the sweeps
// divide it by the processor count so the offered load always slightly
// exceeds capacity (steering quality, not load, differentiates the
// policies).
const steerGapNs = 150_000

// steeredUDP configures one steered receive point: many connections,
// churning heavy-tailed flows.
func steeredUDP(pol steer.Policy, conns int) core.Config {
	cfg := baselineUDP(core.SideRecv)
	cfg.PacketSize = 1024
	cfg.Connections = conns
	cfg.Steer.Enabled = true
	cfg.Steer.Policy = pol
	cfg.Workload.MeanFlowPkts = 512
	return cfg
}

// steerSkew concentrates the load and keeps application threads
// migrating — the regime where flow affinity pays and the reordering
// mechanism fires.
func steerSkew(cfg core.Config) core.Config {
	cfg.Workload.HotConnPct = 60
	cfg.Workload.HotConns = 4
	cfg.Workload.AppMoveEvery = 256
	return cfg
}

// atMaxProcs readies a ladder point, which runs once at the top of the
// processor range with the offered load scaled to it.
func atMaxProcs(cfg core.Config, p Params) core.Config {
	cfg.Procs = p.MaxProcs
	cfg.Seed = p.Seed
	cfg.Workload.ArrivalGapNs = steerGapNs / int64(p.MaxProcs)
	return cfg
}

// steerConns is the sweeps' connection count: many per processor, held
// fixed across the sweep.
const steerConns = 256

// steerSweeps is two families per policy: uniform load, and skewed load
// with app migration. The skewed points back three tables (throughput,
// imbalance, misordering).
func steerSweeps() []Sweep {
	var curves []Curve
	for _, pol := range []steer.Policy{ // packet-level first, as the paper-faithful baseline
		steer.PolicyPacket, steer.PolicyRSS, steer.PolicyFlowDirector, steer.PolicyRebalance,
	} {
		curves = append(curves, Curve{Label: pol.String(), Set: func(c *core.Config) { c.Steer.Policy = pol }})
	}
	base := steeredUDP(steer.PolicyPacket, steerConns)
	return []Sweep{
		{
			Base: base, Curves: curves, GapNs: steerGapNs,
			Views: []View{{Title: "Extension: steered UDP receive, uniform load (1KB, 256 conns)", YLabel: "Mbit/s"}},
		},
		{
			Base: steerSkew(base), Curves: curves, GapNs: steerGapNs,
			Views: []View{
				{Title: "Extension: steered UDP receive, skewed load + app migration", YLabel: "Mbit/s"},
				{Title: "Extension: delivered-load imbalance under skew (100*(max-mean)/mean)", YLabel: "imbalance %",
					Stat: func(rr core.RunResult) float64 { return rr.ImbalancePct }},
				{Title: "Extension: misordered packets under skew (Table 1 analogue)", YLabel: "% misordered", Stat: oooPct},
			},
		},
	}
}

// runSteerLadders measures what is not a processor sweep: two ladders of
// single skewed points at MaxProcs.
func runSteerLadders(p Params) ([]measure.Table, error) {
	// Quiescence ladder: the rebalancer's post-migration hold trades
	// misordering (remap rate) against peak queue imbalance (reaction
	// time), sampled fast enough that the hold, not the sampling period,
	// bounds the rate.
	quiescences := []int64{0, 1_000_000, 5_000_000}
	quiTitle := "Extension: rebalancer quiescence delay ladder"
	var quiFuts []*pointFuture
	for i, q := range quiescences {
		cfg := atMaxProcs(steerSkew(steeredUDP(steer.PolicyRebalance, steerConns)), p)
		cfg.Steer.RebalancePeriodNs = 200_000
		cfg.Steer.ImbalanceThresholdPct = 20
		cfg.Steer.QuiescenceNs = q
		quiFuts = append(quiFuts, submitPoint(cfg, p))
		quiTitle += fmt.Sprintf(" | x=%d: %dus", i+1, q/1000)
	}

	// Connection scaling: the bounded flow table thrashes as connections
	// outgrow it, RSS is insensitive.
	connLadder := []int{64, 256, 1024, 4096}
	connPolicies := []steer.Policy{steer.PolicyRSS, steer.PolicyFlowDirector}
	connTitle := "Extension: connection scaling under skew (Mbit/s at max procs)"
	connFuts := make([][]*pointFuture, len(connPolicies))
	for i, n := range connLadder {
		for pi, pol := range connPolicies {
			connFuts[pi] = append(connFuts[pi], submitPoint(atMaxProcs(steerSkew(steeredUDP(pol, n)), p), p))
		}
		connTitle += fmt.Sprintf(" | x=%d: %d conns", i+1, n)
	}

	qui, err := awaitPoints(quiFuts)
	if err != nil {
		return nil, err
	}
	var connSeries []measure.Series
	for pi, pol := range connPolicies {
		pts, err := awaitPoints(connFuts[pi])
		if err != nil {
			return nil, err
		}
		connSeries = append(connSeries, series(pol.String(), pts, nil))
	}
	return []measure.Table{
		{
			Title: quiTitle, XLabel: "ladder", YLabel: "percent",
			Series: []measure.Series{
				series("peak queue imbalance %", qui, func(rr core.RunResult) float64 { return rr.PeakQueuePct }),
				series("misordered %", qui, oooPct),
			},
		},
		{Title: connTitle, XLabel: "ladder", YLabel: "Mbit/s", Series: connSeries},
	}, nil
}
