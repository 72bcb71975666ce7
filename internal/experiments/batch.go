package experiments

// ext-batch: receive-side GRO batching. The paper's receive stacks pay
// the TCP connection-state lock once per wire segment, which is exactly
// the serialization Section 3.1 profiles; modern NICs instead coalesce
// consecutive same-flow in-order segments into one merged frame (GRO /
// LRO), so the lock — and every other per-packet layer cost — is paid
// once per batch. These points sweep the batch size against the lock
// kind (the unfair spin mutex vs FIFO MCS) and against traffic skew,
// and pair batching with the ext-steer flow-steering policies: affinity
// concentrates a flow's arrivals, which is what gives the coalescer
// runs to merge.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/steer"
)

// batchLadder is the swept MaxSegs family; 1 disables batching (the
// paper-faithful per-packet baseline).
func batchLadder(p Params) []int {
	if len(p.BatchSizes) > 0 {
		return p.BatchSizes
	}
	return []int{1, 4, 8}
}

// batched sets cfg's batch size. A batch of one merges nothing: it is
// the paper-faithful per-packet path.
func batched(cfg *core.Config, maxSegs int) {
	cfg.Batch = msg.BatchConfig{Enabled: true, MaxSegs: maxSegs}
}

func batchSweeps() []Sweep {
	// 1 KB TCP receive: with one shared connection, the regime where
	// every processor contends on one state lock.
	base := with(baselineTCP(core.SideRecv), func(c *core.Config) { c.PacketSize = 1024 })
	var skewed []Curve
	for _, hot := range []int{0, 50} {
		for _, segs := range []int{1, 8} {
			skewed = append(skewed, Curve{
				Label: fmt.Sprintf("%d%% hot, batch %d", hot, segs),
				Set:   func(c *core.Config) { c.HotConnPct = hot; batched(c, segs) },
			})
		}
	}
	return []Sweep{
		{
			// Batch size x lock kind, single shared connection. The
			// lock-wait share should fall as the batch grows (one
			// acquisition covers the whole batch), and the unfair mutex
			// should gain more than MCS — batching removes the very
			// handoffs the spin lock reorders.
			Base: base,
			Ladder: func(p Params) []Curve {
				var out []Curve
				for _, kind := range []sim.LockKind{sim.KindMutex, sim.KindMCS} {
					for _, segs := range batchLadder(p) {
						out = append(out, Curve{
							Label: fmt.Sprintf("%v, batch %d", kind, segs),
							Set:   func(c *core.Config) { c.LockKind = kind; batched(c, segs) },
						})
					}
				}
				return out
			},
			Views: []View{
				{Title: "Extension: batched TCP receive, batch size x lock kind (1KB, one connection)", YLabel: "Mbit/s"},
				{Title: "Extension: state-lock wait share under batching (% of processor time)", YLabel: "lock wait %", Stat: lockWaitPct},
			},
		},
		{
			// Batch size x skew, one connection per processor. The sender
			// interleaves connections, so skew onto a hot connection is
			// what creates same-flow runs for the coalescer — and also
			// what recreates the shared-lock bottleneck batching
			// amortizes.
			Base: with(base, mcsLocks), ConnPerProc: true, Curves: skewed,
			Views: []View{{Title: "Extension: batched TCP receive under skew (MCS, one connection per processor)", YLabel: "Mbit/s"}},
		},
	}
}

// runBatchSteered pairs batching with steering: the ext-steer skewed
// many-connection workload at MaxProcs, with the dispatcher coalescing
// before the steering decision. Single points per (policy, batch) pair.
func runBatchSteered(p Params) ([]measure.Table, error) {
	title := "Extension: steering + batching combined (skewed 256-conn UDP at max procs)"
	var futs []*pointFuture
	for _, pol := range []steer.Policy{steer.PolicyPacket, steer.PolicyFlowDirector} {
		for _, segs := range []int{1, 8} {
			cfg := atMaxProcs(steerSkew(steeredUDP(pol, steerConns)), p)
			batched(&cfg, segs)
			futs = append(futs, submitPoint(cfg, p))
			title += fmt.Sprintf(" | x=%d: %v, batch %d", len(futs), pol, segs)
		}
	}
	pts, err := awaitPoints(futs)
	if err != nil {
		return nil, err
	}
	return []measure.Table{{
		Title: title, XLabel: "ladder",
		Series: []measure.Series{
			series("Mbit/s", pts, nil),
			series("segs/frame", pts, func(rr core.RunResult) float64 { return rr.BatchSegsPerFrame }),
		},
	}}, nil
}
