package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/chksum"
	"repro/internal/trace"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogueMeetsContract holds the workload and metric tables to
// the limits BENCHMARK.json is checked against.
func TestCatalogueMeetsContract(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.name, len(w.why))
		}
	}
	var setup bool
	for _, lists := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range lists {
			name(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unitRE)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("metric %s: better is %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
}

// TestManifestMatchesBenchmarkJSON keeps the committed BENCHMARK.json in
// step with the tables it is generated from.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed, generated any
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(manifestJSON()), &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, generated) {
		t.Error("BENCHMARK.json differs from the tables: regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}

// TestWorkloadsPassTheirChecks runs every workload at 50 ms of virtual
// time (the million connections cut to 10k): both modes must pass their
// correctness checks and report every metric as a finite number, the
// end-to-end ones never zero.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	for i := range workloads {
		w := workloads[i].short()
		t.Run(w.name, func(t *testing.T) {
			sp := newSpanLog()
			for _, traced := range []bool{false, true} {
				var r result
				if traced {
					r = measureLayers(sp, &w, 1994, 0, nil)
				} else {
					r = measureEndToEnd(sp, &w, 1994, 0)
				}
				if !r.Correct {
					t.Fatalf("traced=%v: checks failed: %v", traced, r.Failures)
				}
				if r.Attempted < 1 || r.Failed != 0 {
					t.Errorf("traced=%v: attempted %d, failed %d", traced, r.Attempted, r.Failed)
				}
				for _, d := range metricsFor(traced) {
					s, ok := r.Metrics[d.Name]
					v := s.value(d.Better)
					switch {
					case !ok:
						t.Errorf("traced=%v: metric %s missing", traced, d.Name)
					case math.IsNaN(v) || math.IsInf(v, 0):
						t.Errorf("traced=%v: metric %s = %v", traced, d.Name, v)
					case !traced && v <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
					}
				}
				var got map[string]any
				if err := json.Unmarshal([]byte(contractJSON(&r)), &got); err != nil {
					t.Fatalf("contract line does not parse: %v", err)
				}
				if len(got) != 4 || got["correct"] != true || len(got["metrics"].(map[string]any)) != len(metricsFor(traced)) {
					t.Errorf("traced=%v: contract line %v", traced, got)
				}
			}
			if len(sp.open) != 0 {
				t.Errorf("%d harness spans left open", len(sp.open))
			}
		})
	}
}

// TestLayerSelfTime checks the nesting arithmetic on a hand-built
// recorder: a receive that carries an inline ack nests six layers, the
// parts must sum to the outermost span, and nothing goes negative.
func TestLayerSelfTime(t *testing.T) {
	rec := trace.New(2, 0)
	// Spans record when they end: innermost first.
	rec.LayerSpan(0, "fddi-send", 50, 10)
	rec.LayerSpan(0, "ip-send", 45, 20)
	rec.LayerSpan(0, "tcp-send", 40, 30)
	rec.LayerSpan(0, "tcp-recv", 20, 60)
	rec.LayerSpan(0, "ip-recv", 10, 80)
	rec.LayerSpan(0, "fddi-recv", 0, 100)
	// A second packet on the same processor, and one on another.
	rec.LayerSpan(0, "udp-recv", 130, 10)
	rec.LayerSpan(0, "ip-recv", 120, 30)
	rec.LayerSpan(0, "fddi-recv", 100, 60)
	rec.LayerSpan(1, "fddi-recv", 0, 7)

	self, window := layerSelfNs(rec)
	want := map[string]int64{
		"fddi": (100 - 80) + 10 + (60 - 30) + 7,
		"ip":   (80 - 60) + (20 - 10) + (30 - 10),
		"tcp":  (60 - 30) + (30 - 20),
		"udp":  10,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	var sum int64
	for mod, ns := range self {
		if ns < 0 {
			t.Errorf("%s: negative self time %d", mod, ns)
		}
		sum += ns
	}
	if outer := int64(100 + 60 + 7); sum != outer {
		t.Errorf("self times sum to %d, outermost spans to %d", sum, outer)
	}
	if window != 10+20+30+60+80+100+10+30+60+7 {
		t.Errorf("window residence %d", window)
	}
}

// TestReportRoundTrips: what -out and -append write reads back equal.
func TestReportRoundTrips(t *testing.T) {
	rep := report{Env: fingerprint(), Seed: 7, Seconds: 3, Results: []result{{
		Workload: "udp-recv-1p-1k", GOMAXPROCS: 1, WarmNs: 1, MeasureNs: 2, Reps: 3, Correct: true,
		Attempted: 10, Digest: "abc", Metrics: map[string]stat{"sim_mbps": {Median: 43.6, Q1: 43.6, Q3: 43.6, N: 3}},
	}}}
	path := filepath.Join(t.TempDir(), "history.jsonl")
	for i := 0; i < 2; i++ {
		if err := appendLine(path, rep); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines appended, want 2", len(lines))
	}
	var back report
	if err := json.Unmarshal([]byte(lines[1]), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Errorf("read back %+v, wrote %+v", back, rep)
	}
}

func TestSpansNestAndExport(t *testing.T) {
	sp := newSpanLog()
	sp.track = "w"
	endOuter := sp.begin("rep")
	endInner := sp.begin("core.Build")
	endInner()
	sp.begin("Stack.Run")()
	endOuter()
	if got := []int{sp.spans[0].Parent, sp.spans[1].Parent, sp.spans[2].Parent}; !reflect.DeepEqual(got, []int{-1, 0, 0}) {
		t.Errorf("parents %v", got)
	}
	for _, s := range sp.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := sp.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 { // one track name, three spans
		t.Errorf("%d trace events, want 4", len(doc.TraceEvents))
	}
}

func TestCPUBuckets(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/tcp.(*Protocol).Demux", "repro/internal/ip.(*Protocol).Demux"}, "tcp"},
		{[]string{"repro/internal/sim.(*Thread).Sync"}, "sim"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.schedule", "runtime.park_m"}, bucketSched},
		{[]string{"runtime.memmove", "runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2"}, bucketGC},
		{[]string{"runtime.memmove", "repro/internal/msg.(*Message).CopyIn"}, ""},
		{[]string{"main.runProbes"}, ""},
		{nil, ""},
	} {
		if got := cpuBucket(c.stack); got != c.want {
			t.Errorf("cpuBucket(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestCPUProfileDecodes profiles a short checksum loop and decodes the
// result: every sample taken must resolve to a named stack.
func TestCPUProfileDecodes(t *testing.T) {
	prof := newCPUProfile()
	buf := make([]byte, 4096)
	err := prof.around(func() {
		for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
			probeSink += uint64(chksum.Sum(buf))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if prof.total == 0 {
		t.Skip("the profiler took no sample in 200 ms")
	}
	if prof.share("chksum") == 0 {
		t.Errorf("%d samples, none attributed to chksum: %v", prof.total, prof.buckets)
	}
}

func TestCompareSets(t *testing.T) {
	set := func(i int, kpps float64) result {
		m := map[string]stat{}
		for _, d := range endToEnd {
			m[d.Name] = stat{Median: 1, Q1: 1, Q3: 1, N: 3}
		}
		m["host_kpps"] = stat{Median: kpps, Q1: kpps, Q3: kpps, N: 3}
		return result{Workload: "udp-recv-1p-1k", Set: i, Correct: true, Metrics: m}
	}
	if !compareSets(io.Discard, []result{set(0, 100), set(1, 105)}, 2) {
		t.Error("sets 5% apart on host_kpps reported as differing")
	}
	if compareSets(io.Discard, []result{set(0, 100), set(1, 150)}, 2) {
		t.Error("sets 50% apart on host_kpps reported as agreeing")
	}
}
