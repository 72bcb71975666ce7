// Command bench is the repo benchmark: six workloads measured from
// outside the stack on both clocks — virtual time (the paper's result)
// and host time (what the simulator and the host backend cost).
//
//	go run ./bench                              every workload, untraced then traced
//	go run ./bench -workload udp-recv-1p-1k     one workload
//	go run ./bench -seed 7                      a second seed
//	go run ./bench -repeat 2                    two sets, compared against the bounds
//
// The driver's form, one workload and one mode per invocation, prints
// the contract's JSON object as the last line of standard output:
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//
// README.md defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// runSeconds is the default measurement budget per workload and mode;
// BENCHMARK.json's run_seconds carries the same number to the driver.
const runSeconds = 15

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workloads to run, comma-separated, or 'all'")
		seed         = flag.Uint64("seed", 1994, "workload seed: every generated configuration derives from it")
		seconds      = flag.Int("seconds", runSeconds, "measurement budget per workload and mode, host seconds")
		traceFlag    = flag.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass; both")
		repeat       = flag.Int("repeat", 1, "run the end-to-end suite N times, alternating workload order, and fail if two sets differ by more than a metric's bound")
		outFile      = flag.String("out", "", "write the full report as JSON to FILE")
		appendFile   = flag.String("append", "", "append the report as one JSON line to FILE (the bench trajectory, e.g. bench/history.jsonl)")
		spansFile    = flag.String("spans", "", "write the harness spans as Chrome trace-event JSON to FILE")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json generated from the workload and metric tables, and exit")
	)
	flag.Parse()
	if *manifest {
		fmt.Println(manifestJSON())
		return
	}
	selected, err := selectWorkloads(*workloadFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	var modes []bool // traced?
	switch {
	case *repeat > 1 || *traceFlag == "0":
		modes = []bool{false}
	case *traceFlag == "1":
		modes = []bool{true}
	case *traceFlag == "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace %q: want 0, 1 or both\n", *traceFlag)
		os.Exit(2)
	}

	sp := newSpanLog()
	budget := time.Duration(*seconds) * time.Second
	rep := report{Env: fingerprint(), Seed: *seed, Seconds: *seconds}
	var probes map[string]float64
	if modes[len(modes)-1] { // a traced mode is selected
		sp.track = "probes"
		probes = runProbes(sp)
	}
	for set := 0; set < *repeat; set++ {
		order := append([]*workload(nil), selected...)
		if set%2 == 1 { // alternate the order so position effects show as disagreement
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, traced := range modes {
			for _, w := range order {
				sp.track = w.name
				debug.FreeOSMemory() // each workload starts from a collected, returned heap
				var r result
				if traced {
					r = measureLayers(sp, w, *seed, budget, probes)
				} else {
					r = measureEndToEnd(sp, w, *seed, budget)
				}
				r.Set = set
				printResult(os.Stdout, &r, *seed)
				rep.Results = append(rep.Results, r)
			}
		}
	}

	ok := true
	for i := range rep.Results {
		ok = ok && rep.Results[i].Correct
	}
	if *repeat > 1 && !compareSets(os.Stdout, rep.Results, *repeat) {
		ok = false
	}
	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
	}
	if *outFile != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*outFile, append(data, '\n'), 0o644)
		}
		fail(err)
	}
	if *appendFile != "" {
		fail(appendLine(*appendFile, rep))
	}
	if *spansFile != "" {
		fail(sp.writeChrome(*spansFile))
	}
	// The driver's contract: one workload, one mode, the result object
	// as the last line.
	if len(rep.Results) == 1 {
		fmt.Println(contractJSON(&rep.Results[0]))
	}
	if !ok {
		os.Exit(1)
	}
}

func selectWorkloads(list string) ([]*workload, error) {
	var out []*workload
	if list == "all" {
		for i := range workloads {
			out = append(out, &workloads[i])
		}
		return out, nil
	}
	for _, name := range strings.Split(list, ",") {
		w := findWorkload(strings.TrimSpace(name))
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

// environment fingerprints where a result was measured.
type environment struct {
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	Time      string `json:"time"`
}

func fingerprint() environment {
	env := environment{Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS,
		GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(), CPUModel: "unknown",
		Time: time.Now().UTC().Format(time.RFC3339)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+dirty"
				}
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// report is the -out / -append payload: the environment, the seed, and
// every result with its GOMAXPROCS, virtual intervals and rep count.
type report struct {
	Env     environment `json:"env"`
	Seed    uint64      `json:"seed"`
	Seconds int         `json:"seconds"`
	Results []result    `json:"results"`
}

func appendLine(path string, rep report) error {
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metricsFor returns the catalogue a result reports against.
func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func printResult(out io.Writer, r *result, seed uint64) {
	mode := "end-to-end, tracing off"
	if r.Traced {
		mode = "per-layer, traced pass"
	}
	fmt.Fprintf(out, "== %s (%s; seed %d, GOMAXPROCS=%d, %.0f+%.0f ms per pass, %d reps) ==\n",
		r.Workload, mode, seed, r.GOMAXPROCS, float64(r.WarmNs)/1e6, float64(r.MeasureNs)/1e6, r.Reps)
	for _, d := range metricsFor(r.Traced) {
		s, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-30s %14.6g %-7s", d.Name, s.value(d.Better), d.Unit)
		if s.N > 1 {
			fmt.Fprintf(out, "  q1 %.6g  median %.6g  q3 %.6g  n=%d", s.Q1, s.Median, s.Q3, s.N)
		}
		fmt.Fprintln(out)
	}
	if !r.Traced {
		fmt.Fprintf(out, "  %-30s %14.6g %-7s  (%d of %d packets)\n", "fail_share",
			float64(r.Failed)/float64(r.Attempted), "share", r.Failed, r.Attempted)
	}
	if r.Correct {
		fmt.Fprintln(out, "  checks: ok")
	}
	for _, f := range r.Failures {
		fmt.Fprintln(out, "  CHECK FAILED:", f)
	}
}

// contractJSON renders one result as the driver's result object.
func contractJSON(r *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range metricsFor(r.Traced) {
		if s, ok := r.Metrics[d.Name]; ok {
			obj.Metrics[d.Name] = value{s.value(d.Better), d.Unit}
		}
	}
	data, err := json.Marshal(obj)
	if err != nil { // a NaN or Inf metric: report the run as failed
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, max(r.Attempted, 1), max(r.Attempted, 1))
	}
	return string(data)
}

// compareSets prints, for every workload and end-to-end metric, each
// set's reported value and the spread of its reps, and reports whether
// all sets agree within the metric's own bound.
func compareSets(out io.Writer, results []result, sets int) bool {
	ok := true
	fmt.Fprintf(out, "== repeat check: %d sets ==\n", sets)
	byKey := map[string][]stat{}
	var order []string
	for _, r := range results {
		for _, d := range endToEnd {
			key := r.Workload + " " + d.Name
			if _, seen := byKey[key]; !seen {
				order = append(order, key)
			}
			byKey[key] = append(byKey[key], r.Metrics[d.Name])
		}
	}
	for _, key := range order {
		stats := byKey[key]
		_, name, _ := strings.Cut(key, " ")
		def := endToEndDef(name)
		var worst float64
		line := fmt.Sprintf("  %-50s", key)
		for _, s := range stats {
			spread := 0.0
			if s.Median != 0 {
				spread = (s.Q3 - s.Q1) / math.Abs(s.Median)
			}
			line += fmt.Sprintf("  %.6g (iqr %.1f%%)", s.value(def.Better), 100*spread)
			// Below its floor a metric is noise: 50 and 66 microseconds of
			// set-up are the same set-up.
			if base := max(stats[0].value(def.Better), def.Floor); base != 0 {
				worst = max(worst, math.Abs(max(s.value(def.Better), def.Floor)-base)/math.Abs(base))
			}
		}
		verdict := "ok"
		if worst > def.Bound {
			verdict = "DIFFERS"
			ok = false
		}
		fmt.Fprintf(out, "%s  max diff %.2f%% of bound %.1f%%: %s\n", line, 100*worst, 100*def.Bound, verdict)
	}
	return ok
}

// manifestJSON renders BENCHMARK.json from the workload and metric
// tables.
func manifestJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(data)
}
