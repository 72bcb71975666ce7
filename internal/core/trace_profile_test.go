package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// tracedTCPRecv is the fixed configuration behind the profile golden and
// accounting tests: deterministic seed, small enough to run in test time.
func tracedTCPRecv(traceOn bool) Config {
	cfg := DefaultConfig()
	cfg.Proto = ProtoTCP
	cfg.Side = SideRecv
	cfg.Procs = 4
	cfg.PacketSize = 4096
	cfg.Checksum = true
	cfg.Seed = 42
	cfg.Trace = traceOn
	return cfg
}

func runProfile(t *testing.T, cfg Config) (*Stack, RunResult) {
	t.Helper()
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run(100_000_000, 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return st, res
}

// TestProfileReportGolden pins the exact ProfileReport text for a fixed
// traced configuration. The simulation is deterministic, so any diff
// means the measurements or the report format changed; review it and
// rerun with -update to accept.
func TestProfileReportGolden(t *testing.T) {
	st, _ := runProfile(t, tracedTCPRecv(true))
	got := st.ProfileReport()

	path := filepath.Join("testdata", "profile_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("ProfileReport drifted from %s (rerun with -update to accept):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestTraceNeutrality is the core recorder guarantee: recording never
// charges virtual time or draws randomness, so a traced run's report —
// with the trace addendum stripped at TraceSectionHeader — is
// byte-identical to the untraced run's.
func TestTraceNeutrality(t *testing.T) {
	stOff, resOff := runProfile(t, tracedTCPRecv(false))
	stOn, resOn := runProfile(t, tracedTCPRecv(true))

	if resOff != resOn {
		t.Fatalf("tracing changed measurements:\noff: %+v\non:  %+v", resOff, resOn)
	}
	repOff := stOff.ProfileReport()
	repOn := stOn.ProfileReport()
	base, _, found := strings.Cut(repOn, TraceSectionHeader)
	if !found {
		t.Fatal("traced report lacks the trace section")
	}
	if base != repOff {
		t.Errorf("tracing perturbed the base report:\n--- traced (stripped) ---\n%s\n--- untraced ---\n%s",
			base, repOff)
	}
	if strings.Contains(repOff, TraceSectionHeader) {
		t.Error("untraced report contains the trace section")
	}
}

// TestTraceStampsEveryDelivery: the driver stamps Born only while the
// recorder is on, and then on every packet, so the end-to-end histogram
// holds one sample per segment TCP delivered: first transmissions and,
// on a lossy wire, the driver's retransmissions.
func TestTraceStampsEveryDelivery(t *testing.T) {
	lossy := tracedTCPRecv(true)
	lossy.Faults.Up.Drop = 0.02
	for name, cfg := range map[string]Config{"clean": tracedTCPRecv(true), "lossy": lossy} {
		st, _ := runProfile(t, cfg)
		if n, d := st.Rec.EndToEnd().Count(), st.TCP.Stats().Delivered; n == 0 || n != d {
			t.Errorf("%s: end-to-end histogram holds %d samples for %d delivered segments", name, n, d)
		}
	}
}

// TestLockWaitAccounting checks the acceptance criterion that the
// recorder's per-lock wait events account for the aggregate WaitNs the
// lock statistics report. Both numbers come from the same measurement
// at the grant site, so they must agree exactly, not just within 5%.
func TestLockWaitAccounting(t *testing.T) {
	st, _ := runProfile(t, tracedTCPRecv(true))

	var wantWait int64
	for _, tcb := range st.sh.tcbs {
		wantWait += tcb.StateLockStats().WaitNs
	}
	h := st.Rec.WaitHistogram("tcp-state")
	if wantWait == 0 || h.Count() == 0 {
		t.Fatalf("no contention recorded (stats=%d, trace n=%d); config too small?",
			wantWait, h.Count())
	}
	if got := h.Sum(); got != wantWait {
		diff := float64(got-wantWait) / float64(wantWait)
		t.Errorf("trace wait sum %d vs stats WaitNs %d (%.2f%% off)", got, wantWait, 100*diff)
	}
}

// TestProfileJSONRoundTrip checks the machine-readable profile: it
// marshals, parses back, and its quantiles are ordered.
func TestProfileJSONRoundTrip(t *testing.T) {
	st, res := runProfile(t, tracedTCPRecv(true))
	p := st.Profile("test-run", res)

	if p.Label != "test-run" || p.Proto != "TCP" || p.Side != "recv" || p.Procs != 4 {
		t.Fatalf("profile header wrong: %+v", p)
	}
	if p.Mbps <= 0 || p.Packets <= 0 {
		t.Fatalf("profile measurements empty: mbps=%v packets=%d", p.Mbps, p.Packets)
	}
	if len(p.Locks) == 0 || len(p.Waits) == 0 || len(p.Layers) == 0 || p.E2E == nil {
		t.Fatalf("traced profile missing sections: locks=%d waits=%d layers=%d e2e=%v",
			len(p.Locks), len(p.Waits), len(p.Layers), p.E2E)
	}
	checkHist := func(name string, h *HistogramJSON) {
		if h == nil {
			return
		}
		if h.P50 > h.P90 || h.P90 > h.P99 || h.P99 > h.Max || h.Min > h.P50 {
			t.Errorf("%s quantiles disordered: min=%d p50=%d p90=%d p99=%d max=%d",
				name, h.Min, h.P50, h.P90, h.P99, h.Max)
		}
		if h.Count > 0 && h.Mean <= 0 && h.Max > 0 {
			t.Errorf("%s has samples but zero mean", name)
		}
	}
	for _, w := range p.Waits {
		checkHist("wait "+w.Name, &w.Wait)
	}
	for _, l := range p.Layers {
		h := l.Residence
		checkHist("layer "+l.Name, &h)
	}
	checkHist("e2e", p.E2E)

	out, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back ProfileJSON
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.Label != p.Label || back.Mbps != p.Mbps || len(back.Locks) != len(p.Locks) {
		t.Fatalf("round trip lost data: %+v vs %+v", back, p)
	}
}

// TestUntracedProfileJSON checks that Profile still works without the
// recorder: aggregate lock rows, no histograms.
func TestUntracedProfileJSON(t *testing.T) {
	st, res := runProfile(t, tracedTCPRecv(false))
	p := st.Profile("untraced", res)
	if len(p.Locks) == 0 {
		t.Fatal("untraced profile has no lock rows")
	}
	if p.Waits != nil || p.Layers != nil || p.E2E != nil || p.TraceDropped != 0 {
		t.Errorf("untraced profile carries trace sections: %+v", p)
	}
}

// TestChromeTraceFromRun exports a real run's trace and checks it is
// valid JSON with events on every pump processor.
func TestChromeTraceFromRun(t *testing.T) {
	st, _ := runProfile(t, tracedTCPRecv(true))
	var buf bytes.Buffer
	if err := st.Rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for proc := 0; proc < 4; proc++ {
		if len(st.Rec.Events(proc)) == 0 {
			t.Errorf("pump processor %d recorded no events", proc)
		}
	}
}
