package experiments

// Determinism-under-parallelism property tests: the worker pool must
// produce byte-identical output for every Workers value and on every
// repeat — scheduling may reorder the work, never the results.

import (
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/measure"
)

// parTiny is a short methodology whose experiments still exercise
// multiple points, variants and repeat runs.
func parTiny() Params {
	return Params{
		MaxProcs:   3,
		WarmupNs:   50_000_000,
		MeasureNs:  100_000_000,
		Runs:       2,
		Seed:       7,
		ScaleConns: []int{64, 256},
	}
}

// render flattens tables to the exact bytes ppbench would print.
func render(tables []measure.Table) string {
	var out string
	for _, tb := range tables {
		out += tb.String() + "\n" + tb.CSV() + "\n"
	}
	return out
}

func runWithWorkers(t *testing.T, id string, workers int) string {
	t.Helper()
	spec, ok := Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	p := parTiny()
	p.Workers = workers
	tables, err := spec.Run(p)
	if err != nil {
		t.Fatalf("%s with %d workers: %v", id, workers, err)
	}
	return render(tables)
}

// TestWorkersInvariance runs a representative slice of the catalog —
// a standard sweep family, an aggregate-statistic table, a fixed-
// connection sweep, the lossy wire, the steered open-loop workload, and
// the GRO batching family — at 1, 4 and 13 workers and requires
// byte-identical tables.
func TestWorkersInvariance(t *testing.T) {
	for _, id := range []string{"fig08-09", "table1", "ext-strategies", "ext-loss", "ext-steer", "ext-batch", "ext-scale"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			want := runWithWorkers(t, id, 1)
			for _, w := range []int{4, 13} {
				if got := runWithWorkers(t, id, w); got != want {
					t.Errorf("output with %d workers differs from sequential", w)
				}
			}
		})
	}
}

// TestGOMAXPROCSInvariance runs the shared-connection receive figure —
// every contended lock and Sync a switch between engine threads — with
// one host thread and with four. The engine switches threads without
// the Go scheduler, so how many Ps the runtime has must not show in the
// output.
func TestGOMAXPROCSInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := runWithWorkers(t, "fig08-09", 1)
	runtime.GOMAXPROCS(4)
	if got := runWithWorkers(t, "fig08-09", 1); got != want {
		t.Error("output at GOMAXPROCS=4 differs from GOMAXPROCS=1")
	}
}

// TestRepeatedRunIdentity reruns the same parallel experiment and
// requires identical bytes: no run-to-run scheduling jitter may show.
func TestRepeatedRunIdentity(t *testing.T) {
	first := runWithWorkers(t, "fig10", 4)
	for i := 0; i < 2; i++ {
		if got := runWithWorkers(t, "fig10", 4); got != first {
			t.Fatalf("repeat %d differs from first parallel run", i+1)
		}
	}
}

// TestProfileSuiteWorkersInvariance checks the machine-readable profile
// records (the BENCH_trace.json payload) are identical across worker
// counts, including their latency distributions.
func TestProfileSuiteWorkersInvariance(t *testing.T) {
	p := parTiny()
	encode := func(workers int) string {
		p.Workers = workers
		profiles, err := ProfileSuite(p)
		if err != nil {
			t.Fatalf("ProfileSuite with %d workers: %v", workers, err)
		}
		out, err := json.Marshal(profiles)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	want := encode(1)
	if got := encode(4); got != want {
		t.Fatal("ProfileJSON with 4 workers differs from sequential")
	}
}

// TestProfileSuiteSeriesWorkersInvariance extends the invariance to the
// sampled telemetry payload (the ppbench -timeseries artifact): with
// sampling on, both the profile records — now carrying the attribution
// tables — and every per-run time series must be byte-identical across
// worker counts, and the series must return in suite order.
func TestProfileSuiteSeriesWorkersInvariance(t *testing.T) {
	p := parTiny()
	p.SamplePeriodNs = 1_000_000
	encode := func(workers int) string {
		p.Workers = workers
		profiles, series, err := ProfileSuiteSeries(p)
		if err != nil {
			t.Fatalf("ProfileSuiteSeries with %d workers: %v", workers, err)
		}
		if len(series) != len(profiles) {
			t.Fatalf("%d series for %d profiles", len(series), len(profiles))
		}
		for i := range series {
			if series[i].Label != profiles[i].Label {
				t.Fatalf("series[%d] = %q out of suite order (profile %q)",
					i, series[i].Label, profiles[i].Label)
			}
			if len(series[i].Series) == 0 {
				t.Fatalf("series %q is empty", series[i].Label)
			}
		}
		out, err := json.Marshal(struct {
			P any
			S any
		}{profiles, series})
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	want := encode(1)
	if got := encode(4); got != want {
		t.Fatal("sampled suite with 4 workers differs from sequential")
	}
	// Sampling must not leak into the unsampled suite: without a period
	// the series slice stays nil.
	p.SamplePeriodNs = 0
	p.Workers = 2
	_, series, err := ProfileSuiteSeries(p)
	if err != nil {
		t.Fatal(err)
	}
	if series != nil {
		t.Fatalf("unsampled suite returned %d series, want none", len(series))
	}
}

// TestRunPointsOrder checks the exported point runner returns results
// in input order with correct per-point seeding, each summarizing one
// sample per run beside a non-empty aggregate.
func TestRunPointsOrder(t *testing.T) {
	p := parTiny()
	cfgA := baselineUDP(0)
	cfgA.Procs = 1
	cfgA.Seed = p.Seed
	cfgB := cfgA
	cfgB.Procs = 2

	sums, aggs, err := RunPoints(
		[]core.Config{cfgA, cfgB, cfgA}, p.WarmupNs, p.MeasureNs, p.Runs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 3 || len(aggs) != 3 {
		t.Fatalf("got %d sums, %d aggs, want 3 each", len(sums), len(aggs))
	}
	if sums[0].Mean != sums[2].Mean || sums[0].Mean == sums[1].Mean {
		t.Fatalf("result order scrambled: %+v", sums)
	}
	for i := range sums {
		if len(sums[i].Samples) != p.Runs || sums[i].Mean <= 0 || aggs[i].Mbps <= 0 {
			t.Errorf("point %d: bad summary %+v, aggregate %.1f Mb/s, want %d samples", i, sums[i], aggs[i].Mbps, p.Runs)
		}
	}
}
