package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// TestRegistryOrder pins the export contract: Series returns the series
// in registration order, whatever mix of counters and gauges was
// registered and in whatever proc order.
func TestRegistryOrder(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("b", 1)
	r.Gauge("a", -1, func() int64 { return 7 })
	r.Counter("b", 0)
	r.Gauge("c", 2, func() int64 { return 0 })

	got := r.Series()
	want := []struct {
		name string
		proc int
		kind Kind
	}{
		{"b", 1, KindCounter},
		{"a", -1, KindGauge},
		{"b", 0, KindCounter},
		{"c", 2, KindGauge},
	}
	if len(got) != len(want) {
		t.Fatalf("series count = %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Name != w.name || got[i].Proc != w.proc || got[i].Kind != w.kind {
			t.Errorf("series[%d] = {%s %d %v}, want {%s %d %v}",
				i, got[i].Name, got[i].Proc, got[i].Kind, w.name, w.proc, w.kind)
		}
	}
}

// TestSamplerTickBoundaries: samples land exactly on period multiples,
// and a Tick that jumps several periods emits one sample per boundary
// crossed — the sample grid is a pure function of the period.
func TestSamplerTickBoundaries(t *testing.T) {
	r := NewRegistry(0)
	c := r.Counter("x", 0)
	s := NewSampler(r, 100, 1)

	c.Add(5)
	s.Tick(99) // before the first boundary: nothing
	if n := r.Series()[0].Len(); n != 0 {
		t.Fatalf("samples before first boundary = %d, want 0", n)
	}
	s.Tick(250) // crosses 100 and 200
	ts, v := r.Series()[0].Samples()
	if len(ts) != 2 || ts[0] != 100 || ts[1] != 200 {
		t.Fatalf("sample timestamps = %v, want [100 200]", ts)
	}
	if v[0] != 5 || v[1] != 5 {
		t.Fatalf("sample values = %v, want [5 5]", v)
	}
	s.Tick(300) // exactly on a boundary samples it
	ts, _ = r.Series()[0].Samples()
	if len(ts) != 3 || ts[2] != 300 {
		t.Fatalf("timestamps after Tick(300) = %v, want [... 300]", ts)
	}
}

// TestSeriesRingOverwrite: past the depth, the oldest samples fall off,
// Dropped counts them, and Samples returns the retained window in
// oldest-first order.
func TestSeriesRingOverwrite(t *testing.T) {
	r := NewRegistry(4)
	c := r.Counter("x", 0)
	s := NewSampler(r, 10, 1)
	c.Add(1)
	s.Tick(60) // boundaries 10..60: six samples into a depth-4 ring

	se := r.Series()[0]
	if se.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", se.Dropped())
	}
	ts, _ := se.Samples()
	if len(ts) != 4 || ts[0] != 30 || ts[3] != 60 {
		t.Errorf("retained timestamps = %v, want [30 40 50 60]", ts)
	}
}

// TestGaugeReadsAtSampleTime: a gauge's closure is evaluated at each
// snapshot, not at registration.
func TestGaugeReadsAtSampleTime(t *testing.T) {
	r := NewRegistry(0)
	var v int64
	r.Gauge("g", -1, func() int64 { return v })
	s := NewSampler(r, 10, 1)
	v = 3
	s.Tick(10)
	v = 9
	s.Tick(20)
	_, got := r.Series()[0].Samples()
	if len(got) != 2 || got[0] != 3 || got[1] != 9 {
		t.Fatalf("gauge samples = %v, want [3 9]", got)
	}
}

// TestNilSafety: every exported method must be a no-op on nil receivers
// — that is the entire disabled path.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Add(1)
	c.Inc()
	_ = c.Value()

	var s *Sampler
	s.Tick(100)
	s.LockWait(0, 5)
	s.LockHold(0, 5)
	s.LockAcquire(0)
	if s.Registry() != nil || s.Period() != 0 {
		t.Error("nil Sampler accessors must return zero values")
	}

	var f *FlowSketch
	f.AddN(1, 1, 1)
	if f.Top(3) != nil || f.Tracked() != 0 {
		t.Error("nil FlowSketch accessors must return zero values")
	}

	var d *Deliveries
	d.Note(0, 1, 1, 1)

	var reg *Registry
	if reg.Series() != nil || reg.Dump() != nil {
		t.Error("nil Registry accessors must return zero values")
	}
	if err := reg.WriteCSV(&bytes.Buffer{}); err != nil {
		t.Errorf("nil Registry WriteCSV: %v", err)
	}

	if NewSampler(nil, 100, 1) != nil {
		t.Error("NewSampler(nil, ...) must return nil")
	}
	if NewSampler(NewRegistry(0), 0, 1) != nil {
		t.Error("NewSampler with period 0 must return nil")
	}
}

// TestSketchDeterminismAndTopK: identical update sequences produce
// identical Top tables, heavy flows displace light ones once the
// candidate set is full, and estimates never undercount a flow.
func TestSketchDeterminismAndTopK(t *testing.T) {
	build := func() *FlowSketch {
		f := NewFlowSketch(256, 4)
		for c := 0; c < 16; c++ {
			f.AddN(uint64(c)<<32, int64(c+1), int64((c+1)*100))
		}
		return f
	}
	a, b := build(), build()
	ta, tb := a.Top(4), b.Top(4)
	if len(ta) != 4 {
		t.Fatalf("Top(4) = %d entries, want 4", len(ta))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("sketches diverged at %d: %+v vs %+v", i, ta[i], tb[i])
		}
	}
	// The heaviest flow (conn 15) must be tracked and estimated at no
	// less than its true totals (count-min never undercounts).
	if ta[0].Flow != 15<<32 {
		t.Errorf("top flow = %x, want conn 15", ta[0].Flow)
	}
	if ta[0].Pkts < 16 || ta[0].Bytes < 1600 {
		t.Errorf("top flow estimate %+v undercounts true (16, 1600)", ta[0])
	}
	if a.Tracked() != 4 {
		t.Errorf("Tracked = %d, want 4 (bounded)", a.Tracked())
	}
}

// TestSketchEviction: a candidate set full of light flows admits a new
// heavy flow and evicts the lightest.
func TestSketchEviction(t *testing.T) {
	f := NewFlowSketch(256, 2)
	f.AddN(1, 1, 10)
	f.AddN(2, 1, 20)
	f.AddN(3, 100, 1000) // heavier than both

	top := f.Top(2)
	if top[0].Flow != 3 {
		t.Fatalf("top flow = %d, want 3", top[0].Flow)
	}
	for _, s := range top {
		if s.Flow == 1 {
			t.Error("lightest flow survived eviction")
		}
	}
}

// TestCSVAndDumpFormat: the CSV header and row order match the
// documented long format, and Dump includes never-sampled series with
// empty slices (the schema is complete even before the first boundary).
func TestCSVAndDumpFormat(t *testing.T) {
	r := NewRegistry(0)
	c := r.Counter("pkts", 0)
	r.Gauge("depth", -1, func() int64 { return 2 })
	s := NewSampler(r, 100, 1)
	c.Add(3)
	s.Tick(200)

	var b bytes.Buffer
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "series,kind,proc,ts_ns,value" {
		t.Errorf("CSV header = %q", lines[0])
	}
	// Sampler pre-registers 3 per-proc lock series before ours; find our
	// rows and check shape. Registration order: lock series rows first.
	want := []string{
		"pkts,counter,0,100,3",
		"pkts,counter,0,200,3",
		"depth,gauge,-1,100,2",
		"depth,gauge,-1,200,2",
	}
	joined := b.String()
	for _, w := range want {
		if !strings.Contains(joined, w+"\n") {
			t.Errorf("CSV missing row %q:\n%s", w, joined)
		}
	}

	d := r.Dump()
	if len(d) != len(r.Series()) {
		t.Fatalf("Dump covers %d of %d series", len(d), len(r.Series()))
	}
	fresh := NewRegistry(0)
	fresh.Counter("never", 0)
	fd := fresh.Dump()
	if len(fd) != 1 || fd[0].Name != "never" || len(fd[0].TS) != 0 {
		t.Errorf("never-sampled dump = %+v, want one entry with empty samples", fd)
	}
}

// TestKindString covers the Kind labels the exports embed.
func TestKindString(t *testing.T) {
	if KindCounter.String() != "counter" || KindGauge.String() != "gauge" {
		t.Errorf("Kind labels = %q/%q", KindCounter.String(), KindGauge.String())
	}
}
