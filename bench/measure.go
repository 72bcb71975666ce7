package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/sim"
)

// stat summarises one metric over the reps of a run: median, quartiles
// and sample count.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// value is the figure a run reports for a metric: the median of the
// better half of its reps, which is the lower quartile of a cost and the
// upper quartile of a rate. Other tenants of the host only ever add
// time, and by how much changes from minute to minute: the median rep
// moves with them, the better quartile far less (README.md has the
// measurements), so two runs of the same code hours apart read the
// same. The metrics that repeat exactly have all three figures equal.
func (s stat) value(better string) float64 {
	if better == "higher" {
		return s.Q3
	}
	return s.Q1
}

// quantile interpolates linearly between order statistics.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func summarize(vals []float64) stat {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return stat{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// result is one workload's outcome in one mode (end-to-end or traced).
type result struct {
	Workload   string          `json:"workload"`
	Set        int             `json:"set"` // which -repeat set
	Traced     bool            `json:"traced"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	WarmNs     int64           `json:"warm_ns"`
	MeasureNs  int64           `json:"measure_ns"`
	Reps       int             `json:"reps"`
	Correct    bool            `json:"correct"`
	Failures   []string        `json:"check_failures,omitempty"`
	Attempted  int64           `json:"attempted"`
	Failed     int64           `json:"failed"`
	Digest     string          `json:"digest,omitempty"`
	Metrics    map[string]stat `json:"metrics"`
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// passOpts selects the variant of a pass.
type passOpts struct {
	setupOnly bool // 1 ns warm-up, setupMeasNs (1 ns) measurement: set-up and teardown only
	traced    bool // Config.Trace and telemetry sampling on
	workers   int  // catalogue: pool width (0 = GOMAXPROCS)
}

// tracedSamplePeriodNs is the telemetry sampling period of traced
// passes, 1 ms of virtual time as in the xkprof examples.
const tracedSamplePeriodNs = 1_000_000

// pass runs the workload once.
func (w *workload) pass(sp *spanLog, seed uint64, o passOpts) (passResult, error) {
	warm, meas := w.warmNs, w.measNs
	if o.setupOnly {
		warm, meas = 1, max(1, w.setupMeasNs)
	}
	if w.catalogue() {
		return runCatalogue(sp, seed, warm, meas, o.workers)
	}
	cfg := w.config(seed)
	if o.traced && cfg.Backend == sim.BackendSim {
		// The host backend rejects both observers; its traced pass is a
		// plain pass under the CPU profiler.
		cfg.Trace, cfg.SamplePeriodNs = true, tracedSamplePeriodNs
	}
	p, err := runStack(sp, cfg, warm, meas)
	if err == nil && !o.setupOnly {
		err = checkStack(&p)
	}
	return p, err
}

// measureEndToEnd is the untraced run: one discarded warm-up rep, then
// reps until the time budget is spent (three at least). Each rep is a
// GC, the set-up-only passes, then a full pass.
func measureEndToEnd(sp *spanLog, w *workload, seed uint64, budget time.Duration) result {
	r := result{Workload: w.name, GOMAXPROCS: w.gomaxprocs(false), WarmNs: w.warmNs, MeasureNs: w.measNs,
		Correct: true, Metrics: map[string]stat{}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.gomaxprocs(false)))
	defer sp.begin("end-to-end")()
	if err := w.endToEnd(sp, seed, budget, &r); err != nil {
		r.fail("%v", err)
	}
	if r.Attempted == 0 {
		r.Attempted, r.Failed = 1, 1 // the run failed before moving anything
	}
	return r
}

func (w *workload) endToEnd(sp *spanLog, seed uint64, budget time.Duration, r *result) error {
	if _, err := w.rep(sp, seed); err != nil { // warm-up: heap grown, caches filled
		return fmt.Errorf("warm-up rep: %w", err)
	}
	var reps []repSample
	for start := time.Now(); len(reps) < 3 || time.Since(start) < budget; {
		s, err := w.rep(sp, seed)
		if err != nil {
			return fmt.Errorf("rep %d: %w", len(reps), err)
		}
		if len(reps) > 0 && s.digest != reps[0].digest {
			r.fail("rep %d: virtual-time results differ from rep 0 (digest %s vs %s)", len(reps), s.digest, reps[0].digest)
		}
		reps = append(reps, s)
	}
	r.Reps, r.Digest = len(reps), reps[0].digest

	// sim_mbps and sim_speedup repeat exactly per seed, so the extra
	// one-processor pass behind the speedup runs once, outside the reps.
	mbps, speedup := reps[0].full.mbps, reps[0].full.speedup
	if !w.catalogue() { // the catalogue's pass carries both
		var err error
		if mbps, speedup, err = w.virtualResults(sp, seed, mbps); err != nil {
			return fmt.Errorf("speedup pass: %w", err)
		}
	}

	// The rates are over the whole of a full pass's Run, the set-up
	// inside it included: taking a separately measured set-up out of it
	// put the set-up pass's noise, three times the full pass's on
	// steer-1m-skew-8p, into every rate.
	vals := map[string][]float64{}
	for _, s := range reps {
		full := &s.full
		r.Attempted += full.pkts + full.failed
		r.Failed += full.failed
		for name, v := range map[string]float64{
			"sim_mbps":            mbps,
			"sim_speedup":         speedup,
			"host_kpps":           float64(full.pkts) / 1e3 / full.runS,
			"host_mbps":           float64(full.bytes) * 8 / 1e6 / full.runS,
			"wall_s":              full.wallS(),
			"host_allocs_per_pkt": (float64(full.mallocs) - s.setupMallocs) / float64(full.pkts),
			"setup_s":             s.setupWallS,
			"setup_heap_mb":       s.setupHeapMB,
			"delivered_share":     1 - float64(full.failed)/float64(full.pkts+full.failed),
		} {
			if name != "setup_s" { // a time is reported as measured
				v = max(v, endToEndDef(name).Floor)
			}
			vals[name] = append(vals[name], v)
		}
	}
	for name, v := range vals {
		r.Metrics[name] = summarize(v)
	}
	return nil
}

// repSample is one rep's measurements. The set-up figures are means
// over the rep's set-up-only passes.
type repSample struct {
	full         passResult
	setupWallS   float64 // Build + Run
	setupMallocs float64
	setupHeapMB  float64 // live heap the built, set-up stack adds
	digest       string
}

func (w *workload) rep(sp *spanLog, seed uint64) (repSample, error) {
	defer sp.begin("rep")()
	var s repSample
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var setup passResult
	for i := 0; i < w.setupPasses; i++ {
		p, err := w.pass(sp, seed, passOpts{setupOnly: true})
		if err != nil {
			return s, fmt.Errorf("set-up pass: %w", err)
		}
		if i > 0 && p.digest != setup.digest {
			return s, fmt.Errorf("set-up pass %d: virtual-time results differ (digest %s vs %s)", i, p.digest, setup.digest)
		}
		setup = p
		s.setupWallS += p.wallS() / float64(w.setupPasses)
		s.setupMallocs += float64(p.mallocs) / float64(w.setupPasses)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(setup.st) // the heap measured is the built, set-up stack
	setup.st = nil
	s.setupHeapMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1e6

	full, err := w.pass(sp, seed, passOpts{})
	if err != nil {
		return s, fmt.Errorf("full pass: %w", err)
	}
	full.st = nil // reps are kept; a million-connection stack must not be
	s.full, s.digest = full, setup.digest+"/"+full.digest
	return s, nil
}

// speedupMeasureNs is the virtual interval of the one-processor pass
// behind sim_speedup (and of the simulated passes on the host-backend
// workload).
const speedupMeasureNs = 10e9

// virtualResults returns a stack workload's virtual-time results,
// sim_mbps and sim_speedup, given the full pass's Mb/s. On the
// host-backend workload both are the simulator's prediction for the
// same shape.
func (w *workload) virtualResults(sp *spanLog, seed uint64, fullMbps float64) (mbps, speedup float64, err error) {
	defer sp.begin("virtual results")()
	cfg := w.config(seed)
	if cfg.Backend == sim.BackendHost {
		cfg.Backend, cfg.MsgCache = sim.BackendSim, true
		top, err := runStack(sp, cfg, w.warmNs, speedupMeasureNs)
		if err != nil {
			return 0, 0, err
		}
		fullMbps = top.mbps
	}
	if cfg.Procs == 1 {
		return fullMbps, 1, nil
	}
	one := cfg
	one.Procs = 1
	if one.Connections == cfg.Procs {
		one.Connections = 1 // one connection per processor, as the paper's sweeps do
	}
	base, err := runStack(sp, one, w.warmNs, min(w.measNs, speedupMeasureNs))
	if err != nil {
		return 0, 0, err
	}
	return fullMbps, fullMbps / base.mbps, nil
}
