package experiments

// The paper's evaluation is one method applied to every figure: pick a
// baseline, vary one structural alternative per curve, measure each
// curve at 1..N processors. A Sweep declares that method as data and
// one runner executes it, so a figure is a row of the catalogue, not a
// function.

import (
	"repro/internal/core"
	"repro/internal/measure"
)

// Curve is one line of a figure: the sweep's baseline with the one or
// two fields this curve is about changed.
type Curve struct {
	Label string
	// Set applies the curve's difference to a copy of the baseline; nil
	// is the baseline itself.
	Set func(*core.Config)
	// MaxProcs, if set, stops this curve's sweep short of
	// Params.MaxProcs (Figure 17: the Power Series had four processors).
	MaxProcs int
}

// procs is how far the curve sweeps under p.
func (c Curve) procs(p Params) int {
	if c.MaxProcs > 0 && c.MaxProcs < p.MaxProcs {
		return c.MaxProcs
	}
	return p.MaxProcs
}

// View is one printed table over a sweep's points; a throughput figure
// and its speedup twin are two views of the same points.
type View struct {
	Title, YLabel string
	// Stat picks the plotted value from a point's aggregated runs; nil
	// plots throughput with its confidence interval.
	Stat    func(core.RunResult) float64
	Speedup bool
}

// The statistics the catalogue plots besides throughput.
func oooPct(rr core.RunResult) float64      { return rr.OOOPct }
func wireOOOPct(rr core.RunResult) float64  { return rr.WireOOOPct }
func lockWaitPct(rr core.RunResult) float64 { return 100 * rr.LockWaitFrac }

// Sweep is a baseline, the curves that vary it, and the tables printed
// from the points: every curve is measured at 1..MaxProcs processors.
type Sweep struct {
	Base   core.Config
	Curves []Curve
	// Ladder, if set, yields the curves instead: they follow a Params
	// ladder (-loss, -batch).
	Ladder func(Params) []Curve
	// ConnPerProc opens one connection per processor at every point
	// (Figure 12's multi-connection method) instead of holding
	// Base.Connections fixed across the sweep.
	ConnPerProc bool
	// GapNs, if set, is the steered workload's mean inter-arrival gap at
	// one processor; each point divides it by its processor count, so
	// the offered load always slightly exceeds capacity.
	GapNs int64
	// Floor, if set, adjusts the methodology for this sweep's points
	// (ext-loss's send side needs windows longer than TCP's minimum
	// retransmission timeout).
	Floor func(Params) Params
	Views []View
}

// curves is every curve the sweep measures under p.
func (sw Sweep) curves(p Params) []Curve {
	if sw.Ladder != nil {
		return sw.Ladder(p)
	}
	return sw.Curves
}

// Configs lists every configuration the sweep runs under p, in
// submission order: curve by curve, each at 1..procs processors.
func (sw Sweep) Configs(p Params) []core.Config {
	var out []core.Config
	for _, c := range sw.curves(p) {
		for n := 1; n <= c.procs(p); n++ {
			cfg := sw.Base
			if c.Set != nil {
				c.Set(&cfg)
			}
			cfg.Procs = n
			cfg.Seed = p.Seed
			if sw.ConnPerProc {
				cfg.Connections = n
			}
			if sw.GapNs > 0 {
				cfg.Workload.ArrivalGapNs = sw.GapNs / int64(n)
			}
			out = append(out, cfg)
		}
	}
	return out
}

// start puts every point of the sweep in flight on the worker pool and
// returns the wait that collects them, one slice per curve.
func (sw Sweep) start(p Params) func() ([][]pointValue, error) {
	mp := p
	if sw.Floor != nil {
		mp = sw.Floor(p)
	}
	var futs []*pointFuture
	for _, cfg := range sw.Configs(p) {
		futs = append(futs, submitPoint(cfg, mp))
	}
	return func() ([][]pointValue, error) {
		pts, err := awaitPoints(futs)
		if err != nil {
			return nil, err
		}
		var out [][]pointValue
		for _, c := range sw.curves(p) {
			n := c.procs(p)
			out, pts = append(out, pts[:n]), pts[n:]
		}
		return out, nil
	}
}

// runSweeps measures the sweeps — all of their points in flight at
// once — and renders every view of each, in declaration order.
func runSweeps(sweeps []Sweep, p Params) ([]measure.Table, error) {
	waits := make([]func() ([][]pointValue, error), len(sweeps))
	for i, sw := range sweeps {
		waits[i] = sw.start(p)
	}
	var tables []measure.Table
	for i, sw := range sweeps {
		pts, err := waits[i]()
		if err != nil {
			return nil, err
		}
		curves := sw.curves(p)
		for _, v := range sw.Views {
			tb := measure.Table{Title: v.Title, XLabel: "procs", YLabel: v.YLabel, Speedup: v.Speedup}
			for ci, c := range curves {
				tb.Series = append(tb.Series, series(c.Label, pts[ci], v.Stat))
			}
			tables = append(tables, tb)
		}
	}
	return tables, nil
}

// series shapes measured points into one curve at x = 1..n. stat picks
// the plotted value from a point's aggregated runs; nil plots
// throughput with its confidence interval.
func series(label string, pts []pointValue, stat func(core.RunResult) float64) measure.Series {
	s := measure.Series{Label: label}
	for i, pv := range pts {
		s.X = append(s.X, i+1)
		if stat == nil {
			s.Points = append(s.Points, pv.res)
		} else {
			s.Points = append(s.Points, measure.Result{Mean: stat(pv.agg)})
		}
	}
	return s
}
