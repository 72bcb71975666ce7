// Command xkprof runs one workload configuration and prints a
// Pixie-style profile: per-lock wait and hold times, message-tool and
// demultiplexing statistics, and TCP protocol counters — the
// instrumentation behind the paper's Section 3.1 observation that 90
// percent of receive-side time at 8 CPUs is spent waiting on the TCP
// connection state lock.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/telemetry"
)

// examples are the invocations the usage text shows; the test parses
// each one.
var examples = []string{
	"xkprof -proto tcp -side recv -procs 8 -lock mcs",
	"xkprof -proto tcp -side recv -procs 8 -refs locked -msgcache=false -machine power33",
	"xkprof -proto tcp -side recv -conns 4096 -active 8",
	"xkprof -steer fdir -conns 100000 -compactslots 8192 -flowpkts 512",
	"xkprof -batch -batchsegs 8 -proto udp -side recv",
	"xkprof -trace out.json -sample 1000000 -series series.csv",
	"xkprof -backend host -warmup 5 -measure 100",
}

// options are xkprof's own flags: how long to run and where to write.
type options struct {
	warmupMs, measureMs int64
	traceOut, seriesOut string
}

// newFlagSet declares core's knobs, defaulting to the paper's headline
// shape (one TCP connection received on 8 processors), plus xkprof's
// own flags.
func newFlagSet(cfg *core.Config, o *options) *flag.FlagSet {
	*cfg = core.DefaultConfig()
	cfg.Proto, cfg.Side, cfg.Procs, cfg.Seed = core.ProtoTCP, core.SideRecv, 8, 1994
	fs := flag.NewFlagSet("xkprof", flag.ExitOnError)
	core.BindFlags(fs, cfg)
	fs.Int64Var(&o.warmupMs, "warmup", 500, "virtual warm-up, ms")
	fs.Int64Var(&o.measureMs, "measure", 1000, "virtual measurement interval, ms")
	fs.StringVar(&o.traceOut, "trace", "", "record the packet flight recorder and write a Chrome trace-event JSON (load in Perfetto) to `FILE`")
	fs.StringVar(&o.seriesOut, "series", "", "write the sampled telemetry time series to `FILE` (.json for JSON, anything else CSV); implies -sample 1000000 when -sample is unset")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintf(w, `Usage: xkprof [flags]

Runs one workload configuration on the simulated multiprocessor and
prints a Pixie-style profile: locks, message tool, demultiplexing, TCP
counters, plus steering, batching, trace and telemetry sections as
configured.

Flag groups:
%s  run            -warmup -measure -trace -series

Examples:
  %s

Flags:
`, core.FlagGroups(), strings.Join(examples, "\n  "))
		fs.PrintDefaults()
	}
	return fs
}

// finish applies what the flags imply about each other: steering runs
// on the UDP receive side, the fault rates damage the data direction of
// the chosen side, and a trace or series file turns its recorder on.
func finish(cfg *core.Config, o *options) {
	if cfg.Steer.Enabled {
		cfg.Proto, cfg.Side = core.ProtoUDP, core.SideRecv
	}
	if cfg.Side == core.SideSend {
		cfg.Faults.Up, cfg.Faults.Down = driver.FaultRates{}, cfg.Faults.Up
	}
	cfg.Trace = o.traceOut != ""
	if o.seriesOut != "" && cfg.SamplePeriodNs <= 0 {
		cfg.SamplePeriodNs = telemetry.DefaultPeriodNs
	}
}

func main() {
	var cfg core.Config
	var o options
	// ExitOnError: Parse does not return on a bad command line.
	_ = newFlagSet(&cfg, &o).Parse(os.Args[1:])
	finish(&cfg, &o)

	st, err := core.Build(cfg)
	if err != nil {
		fatal("%v", err)
	}
	res, err := st.Run(o.warmupMs*1_000_000, o.measureMs*1_000_000)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("Throughput: %.1f Mbit/s  (ooo %.1f%%, wire-ooo %.2f%%, lock wait %.1f%% of processor time)\n",
		res.Mbps, res.OOOPct, res.WireOOOPct, 100*res.LockWaitFrac)
	if cfg.Steer.Enabled {
		fmt.Printf("Steering:   imbalance %.1f%% (peak queue %.1f%%), %d migrations, %d flow evictions, %d ring drops\n",
			res.ImbalancePct, res.PeakQueuePct, res.SteerMigrates, res.FlowEvicts, res.SteerDrops)
	}
	if cfg.Batch.Active() {
		fmt.Printf("Batching:   %.2f segs/frame (%d segments in %d merged frames)\n",
			res.BatchSegsPerFrame, res.BatchSegs, res.BatchFrames)
	}
	fmt.Println()
	fmt.Print(st.ProfileReport())

	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			fatal("%v", err)
		}
		if err := st.Rec.WriteChromeTrace(f, st.CounterTracks()...); err != nil {
			f.Close()
			fatal("%v", err)
		}
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("\nwrote flight-recorder trace to %s (open in https://ui.perfetto.dev)\n", o.traceOut)
	}
	if o.seriesOut != "" {
		f, err := os.Create(o.seriesOut)
		if err != nil {
			fatal("%v", err)
		}
		if strings.HasSuffix(o.seriesOut, ".json") {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			err = enc.Encode(st.TimeSeries())
		} else {
			err = st.WriteTimeSeriesCSV(f)
		}
		if err != nil {
			f.Close()
			fatal("%v", err)
		}
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote telemetry time series to %s\n", o.seriesOut)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xkprof: "+format+"\n", args...)
	os.Exit(2)
}
