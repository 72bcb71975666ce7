package experiments

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// paramFlags declares every Params field's command-line flag, once,
// storing into p: BindFlags and FlagGroups read this table (bound and
// rendered as core's knob table is), so a new parameter is one Params
// field plus one entry.
func paramFlags(p *Params) []core.Flag {
	return []core.Flag{
		{Name: "maxprocs", Group: "methodology", Doc: "sweep processor counts 1..N", Dest: &p.MaxProcs},
		{Name: "warmup", Group: "methodology", Doc: "virtual warm-up per run, `ms`", Dest: (*msFlag)(&p.WarmupNs)},
		{Name: "measure", Group: "methodology", Doc: "virtual measurement interval per run, `ms`", Dest: (*msFlag)(&p.MeasureNs)},
		{Name: "runs", Group: "methodology", Doc: "runs averaged per data point", Dest: &p.Runs},
		{Name: "seed", Group: "methodology", Doc: "base PRNG seed", Dest: &p.Seed},

		{Name: "loss", Group: "ladders", Doc: "ext-loss: comma-separated loss `rates`, e.g. 0,0.001,0.01,0.05",
			Dest: &listFlag[float64]{&p.LossRates, "-loss rate", "values in [0,1]", 0, 1}},
		{Name: "batch", Group: "ladders", Doc: "ext-batch: comma-separated batch `sizes` (MaxSegs), e.g. 1,4,8,16; 1 means batching off",
			Dest: &listFlag[int]{&p.BatchSizes, "-batch size", "integers >= 1", 1, math.MaxInt}},
		{Name: "conns", Group: "ladders", Doc: "ext-scale: comma-separated connection `counts`, e.g. 1000,10000,100000",
			Dest: &listFlag[int]{&p.ScaleConns, "-conns count", "integers >= 1", 1, math.MaxInt}},

		{Name: "sample", Group: "telemetry", Doc: "with -timeseries: telemetry sampling period, virtual ns (0: default 1000000)", Dest: &p.SamplePeriodNs},

		{Name: "procs", Group: "host", Doc: "host worker threads to fan simulation points across (0 = GOMAXPROCS); output is identical for every value", Dest: &p.Workers},
		{Name: "backend", Group: "host", Doc: "execution `substrate` for experiments that honor it (ext-host): sim runs the simulated half only, host (or empty) runs both and reports shape agreement",
			Dest: (*backendFlag)(&p.Backend)},
	}
}

// BindFlags registers every parameter flag on fs, storing into p; the
// values p holds at the call are the flags' defaults.
func BindFlags(fs *flag.FlagSet, p *Params) { core.BindTable(fs, paramFlags(p)) }

// FlagGroups renders the parameter flags as the "group  -flag -flag ..."
// lines of a usage text, groups and flags in declaration order.
func FlagGroups() string { return core.GroupTable(paramFlags(&Params{})) }

// msFlag shows a virtual-nanosecond field as milliseconds.
type msFlag int64

func (f *msFlag) String() string { return strconv.FormatInt(int64(*f)/1_000_000, 10) }

func (f *msFlag) Set(s string) error {
	ms, err := strconv.ParseInt(s, 0, 64)
	if err == nil {
		*f = msFlag(ms * 1_000_000)
	}
	return err
}

// backendFlag is Params.Backend, checked against the substrate names.
type backendFlag string

func (f *backendFlag) String() string { return string(*f) }

func (f *backendFlag) Set(s string) error {
	var b sim.Backend
	err := b.Set(s)
	if err == nil {
		*f = backendFlag(b.String())
	}
	return err
}

// listFlag is a comma-separated ladder whose every element must lie in
// [lo, hi]; setting it replaces the whole ladder.
type listFlag[T int | float64] struct {
	dst        *[]T
	what, want string
	lo, hi     T
}

func (f *listFlag[T]) String() string {
	if f.dst == nil {
		return ""
	}
	return strings.ReplaceAll(strings.Trim(fmt.Sprint(*f.dst), "[]"), " ", ",")
}

func (f *listFlag[T]) Set(s string) error {
	*f.dst = nil
	for _, e := range strings.Split(s, ",") {
		var v T
		var err error
		switch d := any(&v).(type) {
		case *int:
			*d, err = strconv.Atoi(strings.TrimSpace(e))
		case *float64:
			*d, err = strconv.ParseFloat(strings.TrimSpace(e), 64)
		}
		if err != nil || !(v >= f.lo && v <= f.hi) {
			return fmt.Errorf("bad %s %q (want %s)", f.what, e, f.want)
		}
		*f.dst = append(*f.dst, v)
	}
	return nil
}
