package experiments

// ext-loss: the stacks leave the paper's error-free wire (Section 2.3)
// and run over the deterministic fault-injection channel. Every dropped
// or corrupted frame forces the real TCP's recovery machinery —
// retransmission timers, duplicate acks, fast retransmit, reassembly
// drains, checksum rejection — to execute under the same multiprocessor
// contention the paper studies, which the error-free experiments never
// exercise.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/sim"
)

// lossLadder is the swept loss-rate family.
func lossLadder(p Params) []float64 {
	if len(p.LossRates) > 0 {
		return p.LossRates
	}
	return []float64{0, 0.001, 0.01, 0.05}
}

// lossy puts cfg on the fault wire at the given loss rate, in the data
// direction of its side. The rate is split half drop, half corruption,
// so "1% loss" means 1% of frames fail to arrive intact — but half of
// them pay the checksum-rejection path instead of vanishing silently.
func lossy(cfg *core.Config, kind sim.LockKind, rate float64) {
	cfg.EnforceChecksum = true
	cfg.LockKind = kind
	r := driver.FaultRates{Drop: rate / 2, Corrupt: rate / 2}
	if cfg.Side == core.SideRecv {
		cfg.Faults.Up = r // inbound data damaged on its way to the stack
	} else {
		cfg.Faults.Down = r // outbound data damaged on its way to the peer
	}
}

// lossCurves is the TCP family: each rate of the ladder under the spin
// mutex and under MCS.
func lossCurves(p Params) []Curve {
	var out []Curve
	for _, rate := range lossLadder(p) {
		for _, k := range []struct {
			name string
			kind sim.LockKind
		}{{"spin", sim.KindMutex}, {"MCS", sim.KindMCS}} {
			out = append(out, Curve{
				Label: fmt.Sprintf("%s, %.1f%% loss", k.name, 100*rate),
				Set:   func(c *core.Config) { lossy(c, k.kind, rate) },
			})
		}
	}
	return out
}

// sendLossParams floors the send-side window so slow-timer recovery is
// amortized rather than truncated: TCP's minimum retransmission timeout
// is one virtual second (two 500 ms slow-timer ticks), so a loss the
// fast-retransmit path misses stalls the sender for at least that long.
// A sub-second measurement interval then reads zero throughput — a
// window artifact, not a protocol property. (The receive side needs no
// floor: there the losses are inbound and the simulated peer
// retransmits immediately on duplicate acks.)
func sendLossParams(p Params) Params {
	const (
		minWarmup  = 1_000_000_000
		minMeasure = 4_000_000_000
	)
	if p.WarmupNs < minWarmup {
		p.WarmupNs = minWarmup
	}
	if p.MeasureNs < minMeasure {
		p.MeasureNs = minMeasure
	}
	return p
}

func lossSweeps() []Sweep {
	return []Sweep{
		{
			Base: baselineTCP(core.SideRecv), Ladder: lossCurves,
			Views: []View{{Title: "Extension: TCP receive under loss+corruption (4KB, checksum enforced)", YLabel: "Mbit/s"}},
		},
		{
			Base: baselineTCP(core.SideSend), Ladder: lossCurves, Floor: sendLossParams,
			Views: []View{{Title: "Extension: TCP send under loss+corruption (4KB, checksum enforced)", YLabel: "Mbit/s"}},
		},
		{
			// UDP has no recovery: loss subtracts throughput linearly, a
			// baseline showing what of TCP's degradation is recovery
			// overhead.
			Base: baselineUDP(core.SideRecv),
			Curves: []Curve{
				{Label: "UDP recv, 0.0% loss"},
				{Label: "UDP recv, 1.0% loss", Set: func(c *core.Config) { c.Faults.Up = driver.FaultRates{Drop: 0.01} }},
			},
			Views: []View{{Title: "Extension: UDP receive under loss (no recovery baseline)", YLabel: "Mbit/s"}},
		},
	}
}
