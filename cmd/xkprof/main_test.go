package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/parnet"
)

// parse runs one command line through xkprof's flag set and finish.
func parse(t *testing.T, line string) (core.Config, options) {
	t.Helper()
	var cfg core.Config
	var o options
	fs := newFlagSet(&cfg, &o)
	fs.Init("xkprof", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(strings.Fields(line)[1:]); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	finish(&cfg, &o)
	return cfg, o
}

// TestUsageExamplesParse: every invocation the usage text shows parses
// and builds a stack.
func TestUsageExamplesParse(t *testing.T) {
	for _, line := range examples {
		cfg, _ := parse(t, line)
		if _, err := core.Build(cfg); err != nil {
			t.Errorf("%s: %v", line, err)
		}
	}
	var cfg core.Config
	var o options
	fs := newFlagSet(&cfg, &o)
	var usage strings.Builder
	fs.SetOutput(&usage)
	fs.Usage()
	for _, want := range append([]string{"-maplock", "-trace-depth", "-warmup"}, examples...) {
		if !strings.Contains(usage.String(), want) {
			t.Errorf("usage text lacks %q", want)
		}
	}
}

// TestFlagsImply: what finish derives from the parsed flags.
func TestFlagsImply(t *testing.T) {
	cfg, _ := parse(t, "xkprof -steer rss -proto tcp -side send")
	if cfg.Proto != core.ProtoUDP || cfg.Side != core.SideRecv {
		t.Errorf("-steer left %v %v, want UDP recv", cfg.Proto, cfg.Side)
	}
	cfg, _ = parse(t, "xkprof -side send -drop 0.1")
	if cfg.Faults.Down.Drop != 0.1 || cfg.Faults.Up.Drop != 0 {
		t.Errorf("-side send -drop damaged %+v, want the outbound direction", cfg.Faults)
	}
	cfg, _ = parse(t, "xkprof -drop 0.1")
	if cfg.Faults.Up.Drop != 0.1 || cfg.Faults.Down.Drop != 0 {
		t.Errorf("-drop on the receive side damaged %+v, want the inbound direction", cfg.Faults)
	}
	cfg, o := parse(t, "xkprof -trace t.json -series s.csv")
	if !cfg.Trace || cfg.SamplePeriodNs <= 0 || o.traceOut != "t.json" {
		t.Errorf("-trace/-series left Trace=%v SamplePeriodNs=%d", cfg.Trace, cfg.SamplePeriodNs)
	}
}

// TestStructuralFlagsMatchParnet: the Section 4-7 alternatives reach the
// engine from the command line exactly as they do from the library.
func TestStructuralFlagsMatchParnet(t *testing.T) {
	base := func() parnet.Config {
		c := parnet.DefaultConfig()
		c.Proto, c.Side, c.Procs = parnet.TCP, parnet.Receive, 4
		c.WarmupMs, c.MeasureMs, c.Runs = 100, 200, 1
		return c
	}
	cases := []struct {
		flags string
		set   func(*parnet.Config)
	}{
		{"-ticketing", func(c *parnet.Config) { c.Ticketing = true }},
		{"-inorder", func(c *parnet.Config) { c.AssumeInOrder = true }},
		{"-msgcache=false", func(c *parnet.Config) { c.MsgCache = false }},
		{"-refs locked", func(c *parnet.Config) { c.RefMode = parnet.LockedRefs }},
		{"-maplock=false", func(c *parnet.Config) { c.MapLocking = false }},
		{"-wired=false", func(c *parnet.Config) { c.Wired = false }},
		{"-machine power33", func(c *parnet.Config) { c.Machine = parnet.PowerSeries33 }},
		{"-steer fdir -lock mcs -conns 64 -size 1024", func(c *parnet.Config) {
			c.Proto, c.LockKind, c.Connections, c.PacketSize = parnet.UDP, sim.KindMCS, 64, 1024
			c.Steer = parnet.SteerConfig{Enabled: true, Policy: parnet.FlowDirectorSteering}
		}},
	}
	for _, tc := range cases {
		want := base()
		tc.set(&want)
		cfg, o := parse(t, "xkprof -procs 4 -warmup 100 -measure 200 "+tc.flags)
		if !reflect.DeepEqual(cfg, want.Config) {
			t.Errorf("%s: configs differ:\nxkprof %+v\nparnet %+v", tc.flags, cfg, want.Config)
			continue
		}
		st, err := core.Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.flags, err)
		}
		got, err := st.Run(o.warmupMs*1_000_000, o.measureMs*1_000_000)
		if err != nil {
			t.Fatalf("%s: %v", tc.flags, err)
		}
		res, _, err := parnet.ProfileRun(want)
		if err != nil {
			t.Fatalf("%s: %v", tc.flags, err)
		}
		if got != res.RunResult {
			t.Errorf("%s: results differ:\nxkprof %+v\nparnet %+v", tc.flags, got, res.RunResult)
		}
	}
}
