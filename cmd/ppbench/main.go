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
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// options are ppbench's own flags: what to run and how to print it.
// Every other flag is an experiments.Params field, bound from that
// package's table.
type options struct {
	list, quick, csv, plot     bool
	experiment, jsonOut, tsOut string
}

// newFlagSet binds the Params flags to p, whose values are their
// defaults, and ppbench's own flags to o.
func newFlagSet(p *experiments.Params, o *options, h flag.ErrorHandling) *flag.FlagSet {
	fs := flag.NewFlagSet("ppbench", h)
	experiments.BindFlags(fs, p)
	fs.BoolVar(&o.list, "list", false, "list available experiments and this flag reference")
	fs.StringVar(&o.experiment, "experiment", "", "experiment ID (see -list), comma-separated, or 'all'")
	fs.BoolVar(&o.quick, "quick", false, "fast smoke parameters (QuickParams) as the defaults; explicit flags still win")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.BoolVar(&o.plot, "plot", false, "also draw each figure as an ASCII chart")
	fs.StringVar(&o.jsonOut, "json", "", "run the traced profile suite and write per-run ProfileJSON records to `FILE` ('-' for stdout)")
	fs.StringVar(&o.tsOut, "timeseries", "", "run the profile suite with telemetry sampling on and write the per-run time series (JSON) to `FILE` ('-' for stdout)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: ppbench [flags]\n\nFlag groups:\n"+
			"  selection      -experiment -list -quick\n"+
			"  output         -csv -plot -json -timeseries\n%s\nFlags:\n", experiments.FlagGroups())
		fs.PrintDefaults()
	}
	return fs
}

// parse reads a command line (less the program name). -quick swaps the
// defaults the flags start from, so the line is parsed again over
// QuickParams: an explicit flag wins either way.
func parse(args []string, h flag.ErrorHandling) (experiments.Params, options, error) {
	var o options
	p := experiments.DefaultParams()
	err := newFlagSet(&p, &o, h).Parse(args)
	if err == nil && o.quick {
		p = experiments.QuickParams()
		err = newFlagSet(&p, &o, h).Parse(args)
	}
	return p, o, err
}

func main() {
	// ExitOnError: parse does not return on a bad command line.
	p, o, _ := parse(os.Args[1:], flag.ExitOnError)

	if o.list {
		printCatalog(os.Stdout)
		return
	}
	if o.experiment == "" && o.jsonOut == "" && o.tsOut == "" {
		fmt.Fprintln(os.Stderr, "ppbench: -experiment, -json or -timeseries required (or -list); try -experiment all")
		os.Exit(2)
	}

	if o.jsonOut != "" || o.tsOut != "" {
		// Only the -timeseries suite samples.
		if o.tsOut == "" {
			p.SamplePeriodNs = 0
		} else if p.SamplePeriodNs <= 0 {
			p.SamplePeriodNs = telemetry.DefaultPeriodNs
		}
		if err := writeProfiles(o.jsonOut, o.tsOut, p); err != nil {
			fmt.Fprintf(os.Stderr, "ppbench: %v\n", err)
			os.Exit(1)
		}
		if o.experiment == "" {
			return
		}
	}

	specs := experiments.Catalog()
	if o.experiment != "all" {
		specs = nil
		for _, id := range strings.Split(o.experiment, ",") {
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
			if o.csv {
				fmt.Println(tb.Title)
				fmt.Print(tb.CSV())
			} else {
				fmt.Println(tb.String())
			}
			if o.plot {
				fmt.Println(tb.Plot(64, 16))
			}
		}
		fmt.Printf("   (%s wall time)\n\n", time.Since(start).Round(time.Millisecond))
	}
}

// printCatalog lists every registered experiment, then the flag
// reference.
func printCatalog(w io.Writer) {
	fmt.Fprintln(w, "Available experiments:")
	for _, s := range experiments.Catalog() {
		fmt.Fprintf(w, "  %-18s %-22s %s\n", s.ID, s.Figures, s.Brief)
	}
	fmt.Fprintln(w)
	p := experiments.DefaultParams()
	fs := newFlagSet(&p, &options{}, flag.ExitOnError)
	fs.SetOutput(w)
	fs.Usage()
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
	for _, out := range []struct {
		v        any
		to, what string
	}{
		{profiles, path, fmt.Sprintf("%d traced runs", len(profiles))},
		{series, tsPath, fmt.Sprintf("%d sampled time series (period %d ns)", len(series), p.SamplePeriodNs)},
	} {
		if out.to == "" {
			continue
		}
		b, err := json.MarshalIndent(out.v, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if out.to == "-" {
			if _, err := os.Stdout.Write(b); err != nil {
				return err
			}
			continue
		}
		if err := os.WriteFile(out.to, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("== profile suite: %s -> %s (%s wall time)\n",
			out.what, out.to, time.Since(start).Round(time.Millisecond))
	}
	fmt.Println()
	return nil
}
