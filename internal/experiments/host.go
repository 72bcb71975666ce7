package experiments

// ext-host: cross-substrate validation. Every paper figure comes out of
// the virtual-time simulator; this experiment runs the same strategy
// sweep — TCP-1 receive under a mutex state lock, under MCS locks, and
// with one connection per processor — on both substrates and compares
// the *shapes*: which strategy wins at the top of the processor ladder,
// and where each speedup curve stops climbing. Absolute numbers are not
// comparable (the simulator models a 1990s shared-bus machine; the host
// backend measures this machine's wall clock), so agreement is claimed
// only for relative ordering and curve knees. See EXPERIMENTS.md for
// what host-mode numbers may and may not support.

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/sim"
)

// Host-side windows are wall-clock nanoseconds, kept short: each point
// occupies the machine exclusively (see submitPoint's host
// serialization), so the sweep's cost is rungs x variants x the window.
const (
	hostWarmupNs  = 2_000_000  // 2 ms real warm-up per point
	hostMeasureNs = 40_000_000 // 40 ms real measurement per point
	// A host point on an oversubscribed machine can lose its whole
	// window to scheduler starvation (the goroutine holding the head-of-
	// line segment never runs); such zero-throughput runs are retried.
	hostAttempts = 3
)

// hostMaxProcs caps the processor ladder for the cross-substrate sweep:
// simulated processors beyond the physical CPU count would all multiplex
// onto the same silicon and say nothing about parallel behavior, but at
// least two rungs are always measured so a shape exists even on a
// single-CPU machine.
func hostMaxProcs(p Params) int {
	maxP := p.MaxProcs
	if n := runtime.NumCPU(); maxP > n {
		maxP = n
	}
	if maxP < 2 {
		maxP = 2
	}
	return maxP
}

// HostVariant is one strategy's pair of throughput curves.
type HostVariant struct {
	Label string
	Sim   []float64 // Mbit/s at 1..len procs, virtual time
	Host  []float64 // Mbit/s at 1..len procs, wall clock; nil when skipped
	// SimKnee/HostKnee are the processor counts where each curve peaks —
	// past the knee, adding processors stops paying.
	SimKnee  int
	HostKnee int
}

// HostComparison is the structured result of the ext-host sweep, exposed
// so tests can assert agreement without parsing rendered tables.
type HostComparison struct {
	Procs    []int // the shared ladder, 1..hostMaxProcs
	Variants []HostVariant
	// SimOrder/HostOrder list variant labels best-first by throughput at
	// the top rung. OrderAgree is their element-wise equality; KneeAgree
	// is every variant's knees landing within one rung of each other.
	SimOrder   []string
	HostOrder  []string
	OrderAgree bool
	KneeAgree  bool
	HostRan    bool // false when Params.Backend names the sim backend
}

// hostSweeps declares the compared strategies, in the shape of Figures
// 8, 10 and 12: TCP receive, 4KB packets, checksum on — one shared
// connection under either lock, then one connection per processor.
func hostSweeps() []Sweep {
	base := baselineTCP(core.SideRecv)
	return []Sweep{
		{Base: base, Curves: []Curve{{Label: "TCP-1 mutex"}, {Label: "TCP-1 MCS", Set: mcsLocks}}},
		{Base: with(base, mcsLocks), ConnPerProc: true, Curves: []Curve{{Label: "conn-per-proc MCS"}}},
	}
}

// knee returns the processor count (1-based rung) of the curve's peak.
func knee(y []float64) int {
	best := 0
	for i := range y {
		if y[i] > y[best] {
			best = i
		}
	}
	return best + 1
}

// orderAtTop ranks variant labels by throughput at the last rung.
func orderAtTop(vs []HostVariant, sel func(HostVariant) []float64) []string {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ya, yb := sel(vs[idx[a]]), sel(vs[idx[b]])
		return ya[len(ya)-1] > yb[len(yb)-1]
	})
	out := make([]string, len(vs))
	for i, j := range idx {
		out[i] = vs[j].Label
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunHostComparison measures the strategy sweep on the simulator (fanned
// across the worker pool) and then, unless p.Backend names the sim
// backend, on the host backend (sequentially, after the sim side has
// drained, so wall-clock windows run on a quiet machine). It backs the
// ext-host experiment and the cross-substrate smoke test.
func RunHostComparison(p Params) (HostComparison, error) {
	p.MaxProcs = hostMaxProcs(p)
	hc := HostComparison{HostRan: p.Backend != sim.BackendSim.String()}
	for n := 1; n <= p.MaxProcs; n++ {
		hc.Procs = append(hc.Procs, n)
	}
	sweeps := hostSweeps()

	// Simulated half: every point in flight at once.
	waits := make([]func() ([][]pointValue, error), len(sweeps))
	for i, sw := range sweeps {
		waits[i] = sw.start(p)
	}
	var hostCfgs [][]core.Config // per variant, what the host half runs
	for i, sw := range sweeps {
		curves, err := waits[i]()
		if err != nil {
			return hc, fmt.Errorf("ext-host sim: %w", err)
		}
		cfgs := sw.Configs(p)
		for ci, pts := range curves {
			hv := HostVariant{Label: sw.Curves[ci].Label}
			for _, pv := range pts {
				hv.Sim = append(hv.Sim, pv.res.Mean)
			}
			hv.SimKnee = knee(hv.Sim)
			hc.Variants = append(hc.Variants, hv)
			hostCfgs = append(hostCfgs, cfgs[:len(pts)])
			cfgs = cfgs[len(pts):]
		}
	}
	hc.SimOrder = orderAtTop(hc.Variants, func(v HostVariant) []float64 { return v.Sim })

	if !hc.HostRan {
		return hc, nil
	}

	// Host half: the same configurations on real goroutines, wall-clock
	// windows, one point at a time. One run per point — wall-clock
	// numbers are nondeterministic regardless, and the claims made of
	// them are ordinal.
	for vi, cfgs := range hostCfgs {
		hv := &hc.Variants[vi]
		for _, cfg := range cfgs {
			cfg.Backend = sim.BackendHost
			var mbps float64
			for attempt := 0; attempt < hostAttempts; attempt++ {
				rr, err := core.RunPoint(cfg, hostWarmupNs, hostMeasureNs)
				if err != nil {
					return hc, fmt.Errorf("ext-host host %s @%dp: %w", hv.Label, cfg.Procs, err)
				}
				if rr.Mbps > 0 {
					mbps = rr.Mbps
					break
				}
			}
			hv.Host = append(hv.Host, mbps)
		}
		hv.HostKnee = knee(hv.Host)
	}
	hc.HostOrder = orderAtTop(hc.Variants, func(v HostVariant) []float64 { return v.Host })
	hc.OrderAgree = equalStrings(hc.SimOrder, hc.HostOrder)
	hc.KneeAgree = true
	for _, v := range hc.Variants {
		d := v.SimKnee - v.HostKnee
		if d < -1 || d > 1 {
			hc.KneeAgree = false
		}
	}
	return hc, nil
}

// agreementSummary renders the shape-agreement verdict as a text block
// (it rides in the agreement table's title, above the knee rows).
func (hc HostComparison) agreementSummary() string {
	var b strings.Builder
	b.WriteString("Extension: sim-vs-host shape agreement\n")
	top := hc.Procs[len(hc.Procs)-1]
	fmt.Fprintf(&b, "  sim  ordering @%d procs: %s\n", top, strings.Join(hc.SimOrder, " > "))
	if !hc.HostRan {
		b.WriteString("  host half skipped (Backend=sim): ordinal claims unverified this run\n")
	} else {
		fmt.Fprintf(&b, "  host ordering @%d procs: %s\n", top, strings.Join(hc.HostOrder, " > "))
		fmt.Fprintf(&b, "  strategy ordering agrees: %v; speedup knees within one rung: %v\n",
			hc.OrderAgree, hc.KneeAgree)
	}
	for i, v := range hc.Variants {
		fmt.Fprintf(&b, "  | x=%d: %s", i+1, v.Label)
	}
	return b.String()
}

// agreementTable tabulates each variant's speedup knee on both
// substrates under the summary verdict (the host row is absent when the
// host half was skipped).
func (hc HostComparison) agreementTable() measure.Table {
	simKnees := measure.Series{Label: "sim knee (procs)"}
	hostKnees := measure.Series{Label: "host knee (procs)"}
	for i, v := range hc.Variants {
		simKnees.X = append(simKnees.X, i+1)
		simKnees.Points = append(simKnees.Points, measure.Result{Mean: float64(v.SimKnee)})
		if hc.HostRan {
			hostKnees.X = append(hostKnees.X, i+1)
			hostKnees.Points = append(hostKnees.Points, measure.Result{Mean: float64(v.HostKnee)})
		}
	}
	series := []measure.Series{simKnees}
	if hc.HostRan {
		series = append(series, hostKnees)
	}
	return measure.Table{
		Title:  hc.agreementSummary(),
		XLabel: "variant", YLabel: "knee (procs)",
		Series: series,
	}
}

func runExtHost(p Params) ([]measure.Table, error) {
	hc, err := RunHostComparison(p)
	if err != nil {
		return nil, err
	}
	var series []measure.Series
	for _, v := range hc.Variants {
		s := measure.Series{Label: v.Label + " (sim)"}
		for i, y := range v.Sim {
			s.X = append(s.X, hc.Procs[i])
			s.Points = append(s.Points, measure.Result{Mean: y})
		}
		series = append(series, s)
	}
	for _, v := range hc.Variants {
		if v.Host == nil {
			continue
		}
		s := measure.Series{Label: v.Label + " (host)"}
		for i, y := range v.Host {
			s.X = append(s.X, hc.Procs[i])
			s.Points = append(s.Points, measure.Result{Mean: y})
		}
		series = append(series, s)
	}
	return []measure.Table{
		{Title: "Extension: strategy sweep on both substrates (TCP recv, 4KB, checksum on; absolute scales differ by design)",
			XLabel: "procs", Series: series},
		{Title: "Extension: sim-vs-host speedup shapes (each curve normalized to its own 1-proc value)",
			XLabel: "procs", YLabel: "relative speedup", Series: series, Speedup: true},
		hc.agreementTable(),
	}, nil
}
