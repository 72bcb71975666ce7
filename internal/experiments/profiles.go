package experiments

// Machine-readable profile suite: a fixed family of traced single runs
// whose ProfileJSON records (throughput plus lock-wait / layer-residence
// / end-to-end latency distributions) give every optimisation PR a
// comparable before/after artifact. `ppbench -json` writes the suite to
// disk; CI archives it as BENCH_trace.json.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ProfileRun is one suite entry: a label plus the traced config.
type ProfileRun struct {
	Label string
	Cfg   core.Config
}

// profileRuns builds the suite at p.MaxProcs processors: the paper's
// central contended case (TCP receive, spin locks), its fix (MCS), the
// send side, the UDP baseline, and a lossy run that exercises the
// recovery machinery.
func profileRuns(p Params) []ProfileRun {
	procs := p.MaxProcs
	if procs < 1 {
		procs = 1
	}
	tcpRecv := baselineTCP(core.SideRecv)
	runs := []ProfileRun{
		{fmt.Sprintf("tcp-recv-mutex-%dp", procs), tcpRecv},
		{fmt.Sprintf("tcp-recv-mcs-%dp", procs), with(tcpRecv, mcsLocks)},
		{fmt.Sprintf("tcp-send-mutex-%dp", procs), baselineTCP(core.SideSend)},
		{fmt.Sprintf("udp-recv-%dp", procs), baselineUDP(core.SideRecv)},
		{fmt.Sprintf("tcp-recv-loss1pct-%dp", procs), with(tcpRecv, func(c *core.Config) { lossy(c, sim.KindMutex, 0.01) })},
	}
	for i := range runs {
		runs[i].Cfg.Procs = procs
		runs[i].Cfg.Seed = p.Seed
		runs[i].Cfg.Trace = true
		runs[i].Cfg.SamplePeriodNs = p.SamplePeriodNs
	}
	return runs
}

// RunSeries is one suite run's archived telemetry time series
// (`ppbench -timeseries`).
type RunSeries struct {
	Label    string                 `json:"label"`
	PeriodNs int64                  `json:"period_ns"`
	Series   []telemetry.SeriesJSON `json:"series"`
}

// ProfileSuite runs the fixed suite once per entry (single run each —
// the profiles are distributions over packets, not over runs) and
// returns the machine-readable records. Entries fan across the worker
// pool; the records return in suite order regardless of Workers.
func ProfileSuite(p Params) ([]core.ProfileJSON, error) {
	profiles, _, err := ProfileSuiteSeries(p)
	return profiles, err
}

// ProfileSuiteSeries is ProfileSuite plus the sampled telemetry time
// series of each run. The series slice is nil unless p.SamplePeriodNs
// is set; both slices return in suite order regardless of Workers.
func ProfileSuiteSeries(p Params) ([]core.ProfileJSON, []RunSeries, error) {
	type runOut struct {
		profile core.ProfileJSON
		series  []telemetry.SeriesJSON
	}
	slots := workerSlots(p.workers())
	runs := profileRuns(p)
	futs := make([]*future[runOut], len(runs))
	for i, r := range runs {
		r := r
		futs[i] = submit(slots, func() (runOut, error) {
			st, err := core.Build(r.Cfg)
			if err != nil {
				return runOut{}, fmt.Errorf("profile %s: %w", r.Label, err)
			}
			res, err := st.Run(p.WarmupNs, p.MeasureNs)
			if err != nil {
				return runOut{}, fmt.Errorf("profile %s: %w", r.Label, err)
			}
			return runOut{st.Profile(r.Label, res), st.TimeSeries()}, nil
		})
	}
	profiles := make([]core.ProfileJSON, len(futs))
	var series []RunSeries
	for i, f := range futs {
		out, err := f.wait()
		if err != nil {
			return nil, nil, err
		}
		profiles[i] = out.profile
		if p.SamplePeriodNs > 0 {
			series = append(series, RunSeries{
				Label:    runs[i].Label,
				PeriodNs: p.SamplePeriodNs,
				Series:   out.series,
			})
		}
	}
	return profiles, series, nil
}
