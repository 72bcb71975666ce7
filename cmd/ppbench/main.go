// Command ppbench reproduces the tables and figures of Nahum et al.,
// "Performance Issues in Parallelized Network Protocols" (OSDI '94), on
// the simulated multiprocessor.
//
// Usage:
//
//	ppbench -list
//	ppbench -experiment fig08-09
//	ppbench -experiment all -runs 5 -measure 2000 -csv
//	ppbench -quick -json BENCH_trace.json -timeseries BENCH_timeseries.json
//
// Durations are virtual milliseconds; the paper used 30 s warm-up and
// 30 s measurement averaged over 10 runs, which works too (it is just
// slower to simulate). `-list` prints the experiment catalog plus the
// full flag reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		exp      = flag.String("experiment", "", "experiment ID (see -list), comma-separated, or 'all'")
		maxProcs = flag.Int("maxprocs", 8, "sweep processor counts 1..N")
		warmup   = flag.Int64("warmup", 1000, "virtual warm-up per run, ms")
		measureD = flag.Int64("measure", 2000, "virtual measurement interval per run, ms")
		runs     = flag.Int("runs", 3, "runs averaged per data point")
		seed     = flag.Uint64("seed", 1994, "base PRNG seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		plot     = flag.Bool("plot", false, "also draw each figure as an ASCII chart")
		quick    = flag.Bool("quick", false, "fast smoke parameters (overrides the above)")
		procs    = flag.Int("procs", 0, "host worker threads to fan simulation points across (0 = GOMAXPROCS); output is identical for every value")
		backend  = flag.String("backend", "", "execution substrate for experiments that honor it (ext-host): sim runs the simulated half only, host (or empty) runs both and reports shape agreement")
		loss     = flag.String("loss", "", "ext-loss: comma-separated loss rates, e.g. 0,0.001,0.01,0.05")
		batch    = flag.String("batch", "", "ext-batch: comma-separated batch sizes (MaxSegs), e.g. 1,4,8,16; 1 means batching off")
		conns    = flag.String("conns", "", "ext-scale: comma-separated connection ladder, e.g. 1000,10000,100000")
		jsonOut  = flag.String("json", "", "run the traced profile suite and write per-run ProfileJSON records to FILE ('-' for stdout)")
		tsOut    = flag.String("timeseries", "", "run the profile suite with telemetry sampling on and write the per-run time series (JSON) to FILE ('-' for stdout)")
		sampleNs = flag.Int64("sample", 0, "with -timeseries: telemetry sampling period, virtual ns (0: default 1000000)")
	)
	flag.Parse()

	if *list {
		printCatalog(os.Stdout)
		return
	}
	if *exp == "" && *jsonOut == "" && *tsOut == "" {
		fmt.Fprintln(os.Stderr, "ppbench: -experiment, -json or -timeseries required (or -list); try -experiment all")
		os.Exit(2)
	}

	p := experiments.Params{
		MaxProcs:  *maxProcs,
		WarmupNs:  *warmup * 1_000_000,
		MeasureNs: *measureD * 1_000_000,
		Runs:      *runs,
		Seed:      *seed,
	}
	if *quick {
		p = experiments.QuickParams()
	}
	p.Workers = *procs
	if *backend != "" {
		var b sim.Backend
		if err := b.Set(*backend); err != nil {
			fmt.Fprintf(os.Stderr, "ppbench: -backend: %v\n", err)
			os.Exit(2)
		}
		p.Backend = b.String()
	}
	if *loss != "" {
		for _, f := range strings.Split(*loss, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || r < 0 || r > 1 {
				fmt.Fprintf(os.Stderr, "ppbench: bad -loss rate %q (want values in [0,1])\n", f)
				os.Exit(2)
			}
			p.LossRates = append(p.LossRates, r)
		}
	}
	if *batch != "" {
		for _, f := range strings.Split(*batch, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "ppbench: bad -batch size %q (want integers >= 1)\n", f)
				os.Exit(2)
			}
			p.BatchSizes = append(p.BatchSizes, n)
		}
	}
	if *conns != "" {
		p.ScaleConns = nil
		for _, f := range strings.Split(*conns, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "ppbench: bad -conns count %q (want integers >= 1)\n", f)
				os.Exit(2)
			}
			p.ScaleConns = append(p.ScaleConns, n)
		}
	}

	if *jsonOut != "" || *tsOut != "" {
		if *tsOut != "" {
			p.SamplePeriodNs = *sampleNs
			if p.SamplePeriodNs <= 0 {
				p.SamplePeriodNs = telemetry.DefaultPeriodNs
			}
		}
		if err := writeProfiles(*jsonOut, *tsOut, p); err != nil {
			fmt.Fprintf(os.Stderr, "ppbench: %v\n", err)
			os.Exit(1)
		}
		if *exp == "" {
			return
		}
	}

	var specs []experiments.Spec
	if *exp == "all" {
		specs = experiments.Catalog()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			s, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "ppbench: unknown experiment %q\n", id)
				printCatalog(os.Stderr)
				os.Exit(2)
			}
			specs = append(specs, s)
		}
	}

	for _, s := range specs {
		start := time.Now()
		fmt.Printf("== %s (%s): %s\n", s.ID, s.Figures, s.Brief)
		tables, err := s.Run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppbench: %s: %v\n", s.ID, err)
			os.Exit(1)
		}
		for _, tb := range tables {
			if *csv {
				fmt.Println(tb.Title)
				fmt.Print(tb.CSV())
			} else {
				fmt.Println(tb.String())
			}
			if *plot {
				fmt.Println(tb.Plot(64, 16))
			}
		}
		fmt.Printf("   (%s wall time)\n\n", time.Since(start).Round(time.Millisecond))
	}
}

// printCatalog lists every registered experiment plus the flag
// reference, grouped by what each flag applies to.
func printCatalog(w io.Writer) {
	fmt.Fprintln(w, "Available experiments:")
	for _, s := range experiments.Catalog() {
		fmt.Fprintf(w, "  %-18s %-22s %s\n", s.ID, s.Figures, s.Brief)
	}
	fmt.Fprint(w, `
Flag groups:
  selection    -experiment ID[,ID...]|all  run experiments; -list this catalog
  methodology  -maxprocs -warmup -measure -runs -seed -quick
               (-quick: fast smoke parameters, overriding the others)
  ladders      -loss R[,R...]   ext-loss loss-rate ladder override
               -batch N[,N...]  ext-batch MaxSegs ladder override (1 = off)
               -conns N[,N...]  ext-scale connection-ladder override
  output       -csv -plot
  suites       -json FILE        traced profile suite (ProfileJSON records)
               -timeseries FILE  profile suite with telemetry sampling on;
                                 per-run time series as JSON ('-' = stdout)
               -sample NS        sampling period for -timeseries (default 1e6)
  host         -procs N  worker threads to fan points across (0 = GOMAXPROCS);
               output is byte-identical for every value
               -backend sim|host  substrate for ext-host (empty or host:
               run both halves and report shape agreement; sim: skip the
               wall-clock half)
`)
}

// writeProfiles runs the traced profile suite and writes the records as
// a JSON array to path ("-" for stdout). When tsPath is non-empty the
// suite also samples telemetry and the per-run time series land there
// as a second JSON array; either path may be empty to skip it.
func writeProfiles(path, tsPath string, p experiments.Params) error {
	start := time.Now()
	profiles, series, err := experiments.ProfileSuiteSeries(p)
	if err != nil {
		return err
	}
	emit := func(v any, to, what string) error {
		out, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		if to == "-" {
			_, err = os.Stdout.Write(out)
			return err
		}
		if err := os.WriteFile(to, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("== profile suite: %s -> %s (%s wall time)\n",
			what, to, time.Since(start).Round(time.Millisecond))
		return nil
	}
	if path != "" {
		if err := emit(profiles, path, fmt.Sprintf("%d traced runs", len(profiles))); err != nil {
			return err
		}
	}
	if tsPath != "" {
		if err := emit(series, tsPath, fmt.Sprintf("%d sampled time series (period %d ns)", len(series), p.SamplePeriodNs)); err != nil {
			return err
		}
	}
	fmt.Println()
	return nil
}
