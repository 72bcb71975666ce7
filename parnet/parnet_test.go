package parnet

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func quick(c Config) Config {
	c.WarmupMs = 200
	c.MeasureMs = 400
	c.Runs = 1
	return c
}

func TestRunBaseline(t *testing.T) {
	cfg := quick(DefaultConfig())
	cfg.Procs = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mbps < 10 {
		t.Fatalf("throughput = %.1f Mb/s", res.Mbps)
	}
	if len(res.Samples) != 1 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
}

func TestRunTCPReceiveReportsOrdering(t *testing.T) {
	cfg := quick(DefaultConfig())
	cfg.Proto = TCP
	cfg.Side = Receive
	cfg.Procs = 6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OOOPct <= 0 {
		t.Error("expected misordering at 6 processors with mutex locks")
	}
	if res.LockWaitFrac <= 0 {
		t.Error("expected lock wait time")
	}
}

func TestSweepAndSpeedup(t *testing.T) {
	cfg := quick(DefaultConfig())
	cfg.Checksum = false
	rs, err := Sweep(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("sweep returned %d points", len(rs))
	}
	sp := Speedup(rs)
	if sp[0] != 1.0 {
		t.Errorf("speedup[0] = %v", sp[0])
	}
	if sp[2] < 2.0 {
		t.Errorf("UDP send speedup at 3 procs = %.2f, want >= 2", sp[2])
	}
}

func TestAllEnumsAccepted(t *testing.T) {
	for _, m := range []Machine{Challenge100, Challenge150, PowerSeries33} {
		for _, l := range []Layout{TCP1, TCP2, TCP6} {
			for _, k := range []LockKind{MutexLock, MCSLock, TicketLock} {
				cfg := quick(DefaultConfig())
				cfg.Proto = TCP
				cfg.Machine = m
				cfg.Layout = l
				cfg.LockKind = k
				if _, err := core.Build(cfg.Config); err != nil {
					t.Errorf("m=%v l=%v k=%v: %v", m, l, k, err)
				}
			}
		}
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 0
	if _, err := Run(cfg); err == nil {
		t.Error("Processors=0 accepted")
	}
	cfg = DefaultConfig()
	cfg.Machine = Machine{Name: "no such machine"}
	if _, err := Run(cfg); err == nil {
		t.Error("bad machine accepted")
	}
	cfg = DefaultConfig()
	cfg.Layout = Layout(99)
	if _, err := Run(cfg); err == nil {
		t.Error("bad layout accepted")
	}
	cfg = DefaultConfig()
	cfg.LockKind = LockKind(99)
	if _, err := Run(cfg); err == nil {
		t.Error("bad lock kind accepted")
	}
}

func TestBackendSelection(t *testing.T) {
	cfg := quick(DefaultConfig())
	cfg.Backend = Backend(99)
	if _, err := Run(cfg); err == nil {
		t.Error("bad backend accepted")
	}
	cfg.Backend = Sim
	if _, err := core.Build(cfg.Config); err != nil {
		t.Errorf("backend %v rejected: %v", cfg.Backend, err)
	}
}

func TestRunHostBackend(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 2
	cfg.Backend = Host
	cfg.WarmupMs = 2 // wall-clock on the host backend
	cfg.MeasureMs = 30
	cfg.Runs = 1
	// An oversubscribed machine can starve a wall-clock window outright;
	// retry before calling the backend broken.
	var res Result
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		res, err = Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Mbps > 0 {
			return
		}
	}
	t.Errorf("no traffic moved in 3 attempts: %+v", res)
}

func TestExperimentCatalog(t *testing.T) {
	exps := Experiments()
	if len(exps) < 20 {
		t.Fatalf("catalog has %d entries, want >= 20", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Brief == "" {
			t.Errorf("incomplete catalog entry %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, want := range []string{"fig02-03", "fig08-09", "fig10", "table1",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17-18"} {
		if !seen[want] {
			t.Errorf("catalog missing %s", want)
		}
	}
}

func TestRunExperimentUnknownID(t *testing.T) {
	if _, err := RunExperiment("fig99", ExperimentParams{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentQuick(t *testing.T) {
	out, err := RunExperiment("sec3.2-checksum", ExperimentParams{
		MaxProcs: 2, WarmupMs: 100, MeasureMs: 200, Runs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || len(out[0]) == 0 {
		t.Fatal("no table produced")
	}
}

func TestDefaultsFilledIn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runs = 0
	cfg.WarmupMs = 0
	cfg.MeasureMs = 0
	cfg.Procs = 1
	cfg.PacketSize = 1024
	cfg.Checksum = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mbps <= 0 {
		t.Fatal("no throughput with defaulted methodology")
	}
}

func TestStrategiesThroughPublicAPI(t *testing.T) {
	for _, st := range []ParallelismStrategy{PacketLevel, ConnectionLevel, Layered} {
		cfg := quick(DefaultConfig())
		cfg.Proto = TCP
		cfg.Side = Receive
		cfg.Strategy = st
		cfg.Procs = 4
		cfg.Connections = 4
		cfg.LockKind = MCSLock
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("strategy %v: %v", st, err)
		}
		if res.Mbps < 20 {
			t.Errorf("strategy %v: %.1f Mb/s", st, res.Mbps)
		}
	}
	cfg := quick(DefaultConfig())
	cfg.Strategy = ParallelismStrategy(99)
	if _, err := Run(cfg); err == nil {
		t.Error("bad strategy accepted")
	}
	cfg = quick(DefaultConfig())
	cfg.Strategy = ConnectionLevel // UDP send: unsupported
	if _, err := Run(cfg); err == nil {
		t.Error("connection-level UDP send accepted")
	}
}

func TestProfileRun(t *testing.T) {
	cfg := quick(DefaultConfig())
	cfg.Proto = TCP
	cfg.Side = Receive
	cfg.Procs = 4
	res, report, err := ProfileRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mbps < 10 {
		t.Fatalf("throughput = %.1f", res.Mbps)
	}
	for _, want := range []string{"tcp-state", "Message tool", "header prediction"} {
		if !contains(report, want) {
			t.Errorf("profile missing %q", want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

func TestRunSteered(t *testing.T) {
	cfg := quick(DefaultConfig())
	cfg.Side = Receive
	cfg.Procs = 4
	cfg.Connections = 64
	cfg.PacketSize = 1024
	cfg.Steer = SteerConfig{Enabled: true, Policy: FlowDirectorSteering}
	cfg.Workload = WorkloadConfig{
		ArrivalGapNs: 40_000, HotConnPct: 50, HotConns: 4,
		MeanFlowPkts: 64, AppMoveEvery: 128,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mbps < 10 {
		t.Fatalf("steered throughput = %.1f Mb/s", res.Mbps)
	}
	if res.SteerMigrates == 0 {
		t.Error("expected flow repins under app migration")
	}
	if res.FlowEvicts == 0 {
		t.Error("expected flow-table evictions with 64 churning connections")
	}

	cfg.Steer.Enabled = false
	if _, err := Run(cfg); err != nil {
		t.Fatalf("unsteered twin failed: %v", err)
	}

	bad := cfg
	bad.Steer = SteerConfig{Enabled: true}
	bad.Side = Send
	if _, err := Run(bad); err == nil {
		t.Error("steering on the send side should be rejected")
	}
}
