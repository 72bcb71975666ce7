package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/msg"
	"repro/internal/steer"
	"repro/internal/telemetry"
)

// TestSampleDisabledIdentity is the tentpole guarantee: telemetry
// sampling is pure observation, so a sampled run's measurements — and
// its report with the attribution addendum stripped — must be
// byte-identical to the unsampled run across every stack shape that
// publishes series (TCP pump, UDP pump, steered, batched).
func TestSampleDisabledIdentity(t *testing.T) {
	shapes := map[string]Config{
		"tcp-recv": func() Config {
			cfg := DefaultConfig()
			cfg.Proto = ProtoTCP
			cfg.Side = SideRecv
			cfg.Procs = 4
			cfg.PacketSize = 1024
			return cfg
		}(),
		"udp-recv": func() Config {
			cfg := DefaultConfig()
			cfg.Side = SideRecv
			cfg.Procs = 3
			return cfg
		}(),
		"steered": steeredConfig(steer.PolicyRebalance),
		"batched": func() Config {
			cfg := DefaultConfig()
			cfg.Proto = ProtoTCP
			cfg.Side = SideRecv
			cfg.Procs = 4
			cfg.PacketSize = 1024
			cfg.Batch = msg.BatchConfig{Enabled: true, MaxSegs: 8}
			return cfg
		}(),
	}
	for name, base := range shapes {
		stOff, err := Build(base)
		if err != nil {
			t.Fatal(err)
		}
		resOff, err := stOff.Run(testWarmup, testMeasure)
		if err != nil {
			t.Fatal(err)
		}

		sampled := base
		sampled.SamplePeriodNs = 1_000_000
		stOn, err := Build(sampled)
		if err != nil {
			t.Fatal(err)
		}
		resOn, err := stOn.Run(testWarmup, testMeasure)
		if err != nil {
			t.Fatal(err)
		}

		if resOff != resOn {
			t.Errorf("%s: sampling changed measurements:\noff: %+v\non:  %+v", name, resOff, resOn)
		}
		repOff := stOff.ProfileReport()
		repOn := stOn.ProfileReport()
		base, _, found := strings.Cut(repOn, TelemetrySectionHeader)
		if !found {
			t.Fatalf("%s: sampled report lacks the telemetry section", name)
		}
		if base != repOff {
			t.Errorf("%s: sampling perturbed the base report:\n--- sampled (stripped) ---\n%s\n--- unsampled ---\n%s",
				name, base, repOff)
		}
		if strings.Contains(repOff, TelemetrySectionHeader) {
			t.Errorf("%s: unsampled report contains the telemetry section", name)
		}
		if stOn.Tel.Registry().Series()[0].Len() == 0 {
			t.Errorf("%s: sampled run collected no samples", name)
		}
	}
}

// sampledSteered is the fixture for the export-surface tests: a steered
// run publishes every series family (per-proc deliveries, queue depths,
// steering gauges, lock counters).
func sampledSteered(t *testing.T) *Stack {
	t.Helper()
	cfg := steeredConfig(steer.PolicyRebalance)
	cfg.SamplePeriodNs = 500_000
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(testWarmup, testMeasure); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCounterTracksPerProc checks the Perfetto acceptance criterion: at
// least 5 counter tracks per worker processor, counters suffixed "/s",
// timestamps strictly increasing along each track.
func TestCounterTracksPerProc(t *testing.T) {
	st := sampledSteered(t)
	tracks := st.CounterTracks()
	if len(tracks) == 0 {
		t.Fatal("no counter tracks from a sampled run")
	}
	perProc := map[int]int{}
	for _, tr := range tracks {
		perProc[tr.Proc]++
		if len(tr.TS) != len(tr.V) {
			t.Fatalf("track %s: %d timestamps vs %d values", tr.Name, len(tr.TS), len(tr.V))
		}
		for i := 1; i < len(tr.TS); i++ {
			if tr.TS[i] <= tr.TS[i-1] {
				t.Fatalf("track %s: non-increasing timestamps %d -> %d", tr.Name, tr.TS[i-1], tr.TS[i])
			}
		}
	}
	for p := 0; p < st.Cfg.Procs; p++ {
		if perProc[p] < 5 {
			t.Errorf("proc %d has %d counter tracks, want >= 5", p, perProc[p])
		}
	}
	// Counter-kind series must export as rates; gauges must not.
	var sawRate, sawGauge bool
	for _, tr := range tracks {
		if strings.HasSuffix(tr.Name, " /s") {
			sawRate = true
		}
		if strings.Contains(tr.Name, "queue-depth") && !strings.HasSuffix(tr.Name, " /s") {
			sawGauge = true
		}
	}
	if !sawRate || !sawGauge {
		t.Errorf("rate/gauge naming missing (rate=%v gauge=%v)", sawRate, sawGauge)
	}
}

// TestAttributionSurfaces: the report's telemetry section and the
// profile JSON both carry the top-N lock and flow tables, and the flow
// table reflects the steered workload's many connections.
func TestAttributionSurfaces(t *testing.T) {
	st := sampledSteered(t)

	rep := st.ProfileReport()
	if !strings.Contains(rep, "top contended locks by total wait:") {
		t.Error("report lacks the lock attribution table")
	}
	if !strings.Contains(rep, "top flows by delivered bytes") {
		t.Error("report lacks the flow attribution table")
	}

	p := st.Profile("x", RunResult{})
	if p.SamplePeriodNs != 500_000 {
		t.Errorf("SamplePeriodNs = %d, want 500000", p.SamplePeriodNs)
	}
	if len(p.TopLocks) == 0 {
		t.Fatal("profile JSON has no top locks")
	}
	for _, l := range p.TopLocks {
		if l.Name == "" || l.WaitNs <= 0 {
			t.Errorf("malformed lock attribution %+v", l)
		}
	}
	if len(p.TopFlows) != 5 {
		t.Fatalf("profile JSON has %d top flows, want 5", len(p.TopFlows))
	}
	conns := map[int]bool{}
	for _, f := range p.TopFlows {
		if f.Pkts <= 0 || f.Bytes <= 0 {
			t.Errorf("malformed flow attribution %+v", f)
		}
		conns[f.Conn] = true
	}
	if len(conns) < 2 {
		t.Errorf("flow attribution names %d distinct connections, want several", len(conns))
	}
}

// TestTimeSeriesDeterministic: two identical sampled runs produce
// byte-identical CSV dumps — the registry order, the sample grid, and
// every value are pure functions of the configuration.
func TestTimeSeriesDeterministic(t *testing.T) {
	dump := func() string {
		st := sampledSteered(t)
		var b bytes.Buffer
		if err := st.WriteTimeSeriesCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := dump(), dump()
	if a != b {
		t.Error("identical sampled runs produced different CSV dumps")
	}
	if !strings.HasPrefix(a, "series,kind,proc,ts_ns,value\n") {
		t.Errorf("CSV header = %q", strings.SplitN(a, "\n", 2)[0])
	}
	if strings.Count(a, "\n") < 10 {
		t.Errorf("CSV implausibly short:\n%s", a)
	}
}

// TestTimeSeriesOffNil: with sampling off the export surfaces degrade
// to empty, not panic.
func TestTimeSeriesOffNil(t *testing.T) {
	st, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Tel != nil {
		t.Fatal("sampling off but Tel non-nil")
	}
	if st.CounterTracks() != nil {
		t.Error("CounterTracks non-nil with sampling off")
	}
	if st.TimeSeries() != nil {
		t.Error("TimeSeries non-nil with sampling off")
	}
	var b bytes.Buffer
	if err := st.WriteTimeSeriesCSV(&b); err != nil {
		t.Errorf("WriteTimeSeriesCSV with sampling off: %v", err)
	}
}

// TestSampleDepthBounds: a run that crosses more sample boundaries than
// the ring holds drops the oldest samples, and the retained window plus
// Dropped accounts for every boundary crossed.
func TestSampleDepthBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 2
	cfg.SamplePeriodNs = 100_000
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(testWarmup, testMeasure); err != nil {
		t.Fatal(err)
	}
	// The run clock extends a little past warmup+measure while the
	// stack drains, so the boundary count is at least the window's.
	wantBoundaries := (testWarmup + testMeasure) / cfg.SamplePeriodNs
	if wantBoundaries <= telemetry.DefaultDepth {
		t.Fatalf("%d boundaries fit a ring of %d: the run would drop nothing", wantBoundaries, telemetry.DefaultDepth)
	}
	se := st.Tel.Registry().Series()[0]
	if se.Len() > telemetry.DefaultDepth {
		t.Errorf("retained %d samples with depth %d", se.Len(), telemetry.DefaultDepth)
	}
	if se.Dropped() == 0 {
		t.Errorf("long run with depth %d dropped nothing", telemetry.DefaultDepth)
	}
	if got := int64(se.Len()) + se.Dropped(); got < wantBoundaries {
		t.Errorf("retained+dropped = %d, want >= %d boundaries", got, wantBoundaries)
	}
}

// TestAttributionIgnoresTracing: the lock table and the sampler's lock
// series have one source, the engine's observer, so a sampled run's
// top-lock table, holder split and time series are the same with
// tracing on or off. Sampling without tracing builds no event rings.
func TestAttributionIgnoresTracing(t *testing.T) {
	var top [2][]LockAttrJSON
	var series [2]string
	for i, traced := range []bool{false, true} {
		cfg := tracedTCPRecv(traced)
		cfg.SamplePeriodNs = 1_000_000
		st, res := runProfile(t, cfg)
		if st.Rec.Enabled() != traced || (st.Rec.Procs() == 0) == traced {
			t.Errorf("trace %v: recorder records events %v with %d rings", traced, st.Rec.Enabled(), st.Rec.Procs())
		}
		top[i] = st.Profile("", res).TopLocks
		var b bytes.Buffer
		if err := st.WriteTimeSeriesCSV(&b); err != nil {
			t.Fatal(err)
		}
		series[i] = b.String()
	}
	if len(top[0]) == 0 || len(top[0][0].Holders) == 0 {
		t.Fatalf("no contended locks attributed: %+v", top[0])
	}
	if !reflect.DeepEqual(top[0], top[1]) {
		t.Errorf("tracing changed the top locks:\noff: %+v\non:  %+v", top[0], top[1])
	}
	if !strings.Contains(series[0], "\nlock-wait-ns,counter,0,") {
		t.Fatalf("no per-proc lock series sampled:\n%s", series[0][:200])
	}
	if series[0] != series[1] {
		t.Error("tracing changed the sampled time series")
	}
}
