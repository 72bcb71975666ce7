package core

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/steer"
)

// knob declares one configuration knob, once. The command-line flag set
// and its grouped usage text (BindFlags, FlagGroups), the range check on
// enum values and the host backend's reject list (Build) are all read
// off this table, so a new knob is one Config field plus one entry.
type knob struct {
	// flag is the command-line name, group the usage-text heading it
	// lists under. A knob a tool spells its own way (xkprof's -trace
	// FILE turns Trace on) has no flag; doc then names it in errors.
	flag, group, doc string
	// dest returns the address of the knob's Config field: a *bool,
	// *int, *int64, *uint64 or *float64, or a flag.Value (the enums).
	dest func(*Config) any
	// hostWhy, where set, is why the host backend cannot run the knob,
	// and hostBad reports whether c asks for it.
	hostWhy string
	hostBad func(*Config) bool
}

// Why the host backend refuses what it refuses.
const (
	hostSerialized = "its state is serialized by the sim engine and would race on real goroutines"
	hostVirtual    = "it records virtual-time series into engine-serialized rings"
)

func faulty(c *Config) bool { return c.Faults.Enabled() }

var knobs = []knob{
	{flag: "proto", group: "workload", doc: "transport: tcp or udp",
		dest: func(c *Config) any { return &c.Proto }},
	{flag: "side", group: "workload", doc: "side: send or recv",
		dest: func(c *Config) any { return &c.Side }},
	{flag: "procs", group: "workload", doc: "processors",
		dest: func(c *Config) any { return &c.Procs }},
	{flag: "conns", group: "workload", doc: "connections",
		dest: func(c *Config) any { return &c.Connections }},
	{flag: "size", group: "workload", doc: "packet size, bytes",
		dest: func(c *Config) any { return &c.PacketSize }},
	{flag: "checksum", group: "workload", doc: "transport checksumming",
		dest: func(c *Config) any { return &c.Checksum }},
	{flag: "lock", group: "workload", doc: "state lock: mutex, mcs, ticket",
		dest: func(c *Config) any { return &c.LockKind }},
	{flag: "layout", group: "workload", doc: "TCP locking layout: 1, 2 or 6",
		dest: func(c *Config) any { return &c.Layout }},
	{flag: "strategy", group: "workload", doc: "parallelism: packet, connection, layered",
		dest:    func(c *Config) any { return &c.Strategy },
		hostWhy: "only the packet-level pumps run on real goroutines",
		hostBad: func(c *Config) bool { return c.Strategy != StrategyPacket }},
	{flag: "seed", group: "workload", doc: "PRNG seed",
		dest: func(c *Config) any { return &c.Seed }},

	{flag: "ticketing", group: "structure", doc: "TCP: preserve order above TCP with up-tickets (Section 4.2; one connection)",
		dest: func(c *Config) any { return &c.Ticketing }},
	{flag: "inorder", group: "structure", doc: "TCP: treat every segment as in order (Figure 10's upper bound)",
		dest: func(c *Config) any { return &c.AssumeInOrder }},
	{flag: "msgcache", group: "structure", doc: "per-processor message caches (Section 6); off: one locked arena",
		dest: func(c *Config) any { return &c.MsgCache }},
	{flag: "refs", group: "structure", doc: "reference counts: atomic or locked (Section 5.2)",
		dest: func(c *Config) any { return &c.RefMode }},
	{flag: "maplock", group: "structure", doc: "lock the demux maps (Section 3.1)",
		dest:    func(c *Config) any { return &c.MapLocking },
		hostWhy: "unlocked maps rely on the sim engine serializing access",
		hostBad: func(c *Config) bool { return !c.MapLocking }},
	{flag: "wired", group: "structure", doc: "wire each thread to its processor; off: threads migrate (Section 3)",
		dest:    func(c *Config) any { return &c.Wired },
		hostWhy: "a goroutine has no migration to model",
		hostBad: func(c *Config) bool { return !c.Wired }},
	{flag: "machine", group: "structure", doc: "simulated machine: challenge100, challenge150, power33 (Section 7)",
		dest: func(c *Config) any { return &c.Machine }},

	{flag: "backend", group: "substrate", doc: "execution substrate: sim (deterministic virtual time) or host (real goroutines, plain packet-level shapes only; -warmup/-measure become wall-clock ms, so keep them short)",
		dest: func(c *Config) any { return &c.Backend }},

	{flag: "active", group: "scale-out", doc: "pump only the first N connections; the rest stay established but idle (0: all)",
		dest: func(c *Config) any { return &c.ActiveConns }},
	{flag: "compactslots", group: "scale-out", doc: "steered sink: bound exact per-flow accounting to a direct-mapped table of N slots (0: exact)",
		dest: func(c *Config) any { return &c.Workload.CompactSlots }},

	// The tools apply the rates to the data direction of the chosen
	// side; they bind inbound, and xkprof moves them for -side send.
	{flag: "drop", group: "fault wire", doc: "fault wire: frame drop probability",
		dest: func(c *Config) any { return &c.Faults.Up.Drop }, hostWhy: hostSerialized, hostBad: faulty},
	{flag: "dup", group: "fault wire", doc: "fault wire: frame duplication probability",
		dest: func(c *Config) any { return &c.Faults.Up.Dup }, hostWhy: hostSerialized, hostBad: faulty},
	{flag: "corrupt", group: "fault wire", doc: "fault wire: frame corruption probability",
		dest: func(c *Config) any { return &c.Faults.Up.Corrupt }, hostWhy: hostSerialized, hostBad: faulty},
	{flag: "reorder", group: "fault wire", doc: "fault wire: frame reorder probability",
		dest: func(c *Config) any { return &c.Faults.Up.Reorder }, hostWhy: hostSerialized, hostBad: faulty},
	{flag: "delay", group: "fault wire", doc: "fault wire: frame delay probability",
		dest: func(c *Config) any { return &c.Faults.Up.Delay }, hostWhy: hostSerialized, hostBad: faulty},
	{flag: "delayns", group: "fault wire", doc: "fault wire: max extra delay, virtual ns (default 50000)",
		dest: func(c *Config) any { return &c.Faults.Up.DelayNs }},
	{flag: "fault-seed", group: "fault wire", doc: "fault schedule seed (0: derive from -seed)",
		dest: func(c *Config) any { return &c.Faults.Seed }},
	{flag: "enforce-checksum", group: "fault wire", doc: "drop (not just count) checksum-bad segments",
		dest: func(c *Config) any { return &c.EnforceChecksum }},

	{flag: "steer", group: "flow steering", doc: "flow steering policy (UDP receive): off, rr, rss, fdir, rebalance",
		dest:    func(c *Config) any { return (*steerFlag)(&c.Steer) },
		hostWhy: hostSerialized,
		hostBad: func(c *Config) bool { return c.Steer.Enabled }},
	{flag: "hot", group: "flow steering", doc: "steered workload: percent of arrivals to the hot connection subset",
		dest: func(c *Config) any { return &c.Workload.HotConnPct }},
	{flag: "hotconns", group: "flow steering", doc: "steered workload: hot subset size (0: 1)",
		dest: func(c *Config) any { return &c.Workload.HotConns }},
	{flag: "gap", group: "flow steering", doc: "steered workload: mean inter-arrival gap, virtual ns (0: default)",
		dest: func(c *Config) any { return &c.Workload.ArrivalGapNs }},
	{flag: "flowpkts", group: "flow steering", doc: "steered workload: mean flow length before connection churn (0: no churn)",
		dest: func(c *Config) any { return &c.Workload.MeanFlowPkts }},
	{flag: "appmove", group: "flow steering", doc: "steered workload: migrate a connection's app thread every N deliveries (0: never)",
		dest: func(c *Config) any { return &c.Workload.AppMoveEvery }},
	{flag: "quiesce", group: "flow steering", doc: "rebalancer quiescence hold after a bucket migration, virtual ns",
		dest: func(c *Config) any { return &c.Steer.QuiescenceNs }},

	{flag: "batch", group: "GRO batching", doc: "coalesce consecutive same-flow in-order segments (receive side)",
		dest:    func(c *Config) any { return &c.Batch.Enabled },
		hostWhy: hostSerialized,
		hostBad: func(c *Config) bool { return c.Batch.Enabled }},
	{flag: "batchsegs", group: "GRO batching", doc: "batching: max segments merged per frame (0: default 8)",
		dest: func(c *Config) any { return &c.Batch.MaxSegs }},
	{flag: "batchbytes", group: "GRO batching", doc: "batching: max merged frame bytes (0: default 8192)",
		dest: func(c *Config) any { return &c.Batch.MaxBytes }},
	{flag: "batchflush", group: "GRO batching", doc: "batching: pending-merge flush timeout, virtual ns (0: default 50000)",
		dest: func(c *Config) any { return &c.Batch.FlushTimeoutNs }},

	{group: "observability", doc: "packet flight recorder",
		dest:    func(c *Config) any { return &c.Trace },
		hostWhy: hostVirtual,
		hostBad: func(c *Config) bool { return c.Trace }},
	{flag: "trace-depth", group: "observability", doc: "per-processor trace ring capacity (0: default 65536 events)",
		dest: func(c *Config) any { return &c.TraceDepth }},
	{flag: "sample", group: "observability", doc: "telemetry sampling period, virtual ns (0: off); sampled counters merge into -trace as Perfetto counter tracks and the profile gains the attribution section",
		dest:    func(c *Config) any { return &c.SamplePeriodNs },
		hostWhy: hostVirtual,
		hostBad: func(c *Config) bool { return c.SamplePeriodNs > 0 }},
}

// label names the knob in an error.
func (k *knob) label() string {
	if k.flag == "" {
		return k.doc
	}
	return "-" + k.flag
}

// steerFlag is -steer: "off", or the policy that steering runs with.
type steerFlag steer.Config

func (f *steerFlag) String() string {
	if !f.Enabled {
		return "off"
	}
	return f.Policy.String()
}

func (f *steerFlag) Set(s string) error {
	f.Enabled = s != "off"
	if !f.Enabled {
		return nil
	}
	return f.Policy.Set(s)
}

// BindFlags registers every declared flag on fs, storing into cfg; the
// values cfg holds at the call are the flags' defaults.
func BindFlags(fs *flag.FlagSet, cfg *Config) {
	for i := range knobs {
		k := &knobs[i]
		if k.flag == "" {
			continue
		}
		switch p := k.dest(cfg).(type) {
		case *bool:
			fs.BoolVar(p, k.flag, *p, k.doc)
		case *int:
			fs.IntVar(p, k.flag, *p, k.doc)
		case *int64:
			fs.Int64Var(p, k.flag, *p, k.doc)
		case *uint64:
			fs.Uint64Var(p, k.flag, *p, k.doc)
		case *float64:
			fs.Float64Var(p, k.flag, *p, k.doc)
		case flag.Value:
			fs.Var(p, k.flag, k.doc)
		default:
			panic(fmt.Sprintf("core: knob -%s has no flag type for %T", k.flag, p))
		}
	}
}

// FlagGroups renders the declared flags as the "group  -flag -flag ..."
// lines of a usage text, groups and flags in declaration order.
func FlagGroups() string {
	var b strings.Builder
	group, col := "", 0
	for i := range knobs {
		k := &knobs[i]
		if k.flag == "" {
			continue
		}
		if k.group != group {
			group = k.group
			col, _ = fmt.Fprintf(&b, "\n  %-14s", group)
		} else if col+len(k.flag) > 70 {
			col, _ = fmt.Fprintf(&b, "\n%16s", "")
		}
		n, _ := fmt.Fprintf(&b, " -%s", k.flag)
		col += n
	}
	return b.String()[1:] + "\n"
}

// validateKnobs walks the table once per Build: every enum must hold a
// declared value, and on the host backend no knob the substrate cannot
// run may be on. It changes nothing: every knob it accepts means the
// same on both substrates.
func validateKnobs(cfg *Config) error {
	host := cfg.Backend == sim.BackendHost
	for i := range knobs {
		k := &knobs[i]
		if v, ok := k.dest(cfg).(flag.Value); ok && v.String() == "invalid" {
			return fmt.Errorf("core: %s: value out of range", k.label())
		}
		if host && k.hostBad != nil && k.hostBad(cfg) {
			return fmt.Errorf("core: host backend cannot run %s: %s", k.label(), k.hostWhy)
		}
	}
	return nil
}
