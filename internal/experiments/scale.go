package experiments

// ext-scale: million-flow scale-out. The paper's tests stop at one
// connection per processor; this extension ratchets the connection
// count to 100k+ and measures what breaks. Two ladders:
//
//   - TCP receive with idle connections: N connections complete their
//     handshakes but only the first Procs are pumped. The timers sit on
//     a hierarchical timing wheel, so a 200/500 ms virtual tick costs
//     O(expiring timers), idle connections tax no arriving packet, and
//     the ladder is flat (BSD's scan of every TCB under the demux map
//     lock was not: EXPERIMENTS.md keeps its measured tax).
//
//   - Steered UDP scale-out: the many-connection steering workload with
//     the connection count swept 1k -> 100k+. Exact per-flow state is
//     bounded (Flow Director's table, the sink's compact direct-mapped
//     accounting table); totals come from the sketch-backed telemetry.
//     The demux table is sized from the connection count, the driver
//     keeps one shared frame template, so per-connection cost is a map
//     entry plus generator state.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/steer"
)

// scaleLadder is the steered-UDP connection ladder (Params.ScaleConns
// overrides).
func scaleLadder(p Params) []int {
	if len(p.ScaleConns) > 0 {
		return p.ScaleConns
	}
	return []int{1_000, 10_000, 100_000, 1_000_000}
}

// tcpScaleLadder derives the TCP idle-connection ladder: capped at 8192
// (every connection completes a full virtual handshake at setup) and
// deduplicated.
func tcpScaleLadder(p Params) []int {
	var out []int
	for _, n := range scaleLadder(p) {
		if n > 8192 {
			n = 8192
		}
		if len(out) == 0 || out[len(out)-1] != n {
			out = append(out, n)
		}
	}
	return out
}

// scaleTCP configures one TCP idle-connection point: conns established,
// only the first Procs pumped.
func scaleTCP(p Params, conns int) core.Config {
	cfg := baselineTCP(core.SideRecv)
	cfg.PacketSize = 1024
	cfg.Checksum = false
	cfg.Procs = p.MaxProcs
	cfg.Connections = conns
	cfg.ActiveConns = p.MaxProcs
	cfg.Seed = p.Seed
	return cfg
}

// scaleUDP configures one steered scale-out point: Flow Director
// steering, churning flows, bounded exact accounting.
func scaleUDP(p Params, conns int) core.Config {
	cfg := atMaxProcs(steeredUDP(steer.PolicyFlowDirector, conns), p)
	cfg.Workload.CompactSlots = 8192
	return cfg
}

func runExtScale(p Params) ([]measure.Table, error) {
	tcpLadder := tcpScaleLadder(p)
	udpLadder := scaleLadder(p)

	// All points of both ladders are in flight on the worker pool at once.
	var tcpFuts []*pointFuture
	for _, n := range tcpLadder {
		tcpFuts = append(tcpFuts, submitPoint(scaleTCP(p, n), p))
	}
	var udpFuts []*pointFuture
	for _, n := range udpLadder {
		udpFuts = append(udpFuts, submitPoint(scaleUDP(p, n), p))
	}

	tcp, err := awaitPoints(tcpFuts)
	if err != nil {
		return nil, err
	}
	udp, err := awaitPoints(udpFuts)
	if err != nil {
		return nil, err
	}
	bytesPerConn := measure.Series{Label: "KB/conn"}
	for i, pv := range udp {
		bytesPerConn.X = append(bytesPerConn.X, i+1)
		bytesPerConn.Points = append(bytesPerConn.Points,
			measure.Result{Mean: pv.res.Mean * float64(p.MeasureNs) / (8e3 * 1024 * float64(udpLadder[i]))})
	}

	tcpTitle := "Extension: TCP receive with idle connections (Mbit/s)"
	for i, n := range tcpLadder {
		tcpTitle += fmt.Sprintf(" | x=%d: %d conns", i+1, n)
	}
	udpTitle := "Extension: steered UDP connection scale-out (Mbit/s)"
	for i, n := range udpLadder {
		udpTitle += fmt.Sprintf(" | x=%d: %d conns", i+1, n)
	}
	return []measure.Table{
		{Title: tcpTitle, XLabel: "ladder", YLabel: "Mbit/s",
			Series: []measure.Series{series("TCP receive, N idle connections", tcp, nil)}},
		{Title: udpTitle, XLabel: "ladder", YLabel: "Mbit/s",
			Series: []measure.Series{series("Flow Director", udp, nil)}},
		{Title: "Extension: scale-out accounting (bounded exact state + sketch totals)",
			XLabel: "ladder", YLabel: "value",
			Series: []measure.Series{
				series("kpkts/s", udp, func(rr core.RunResult) float64 { return float64(rr.Packets) * 1e6 / float64(p.MeasureNs) }),
				bytesPerConn,
				series("FD evictions (k)", udp, func(rr core.RunResult) float64 { return float64(rr.FlowEvicts) / 1e3 }),
				series("sink evictions (k)", udp, func(rr core.RunResult) float64 { return float64(rr.SinkEvicts) / 1e3 }),
			}},
	}, nil
}
