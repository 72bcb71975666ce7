package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/telemetry"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram not zeroed: n=%d sum=%d min=%d max=%d",
			h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if h.Mean() != 0 {
		t.Fatalf("empty Mean = %v, want 0", h.Mean())
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile(0.5) = %d, want 0", got)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-42) // clamps to 0
	if h.counts[0] != 2 {
		t.Fatalf("bucket 0 count = %d, want 2", h.counts[0])
	}
	if h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("zero/negative samples leaked into sum/min/max: sum=%d min=%d max=%d",
			h.Sum(), h.Min(), h.Max())
	}
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("Quantile(0.99) = %d, want 0", got)
	}
}

func TestHistogramSingleSampleExact(t *testing.T) {
	var h Histogram
	h.Observe(12345)
	for _, q := range []float64{0.01, 0.50, 0.90, 0.99, 1.0} {
		if got := h.Quantile(q); got != 12345 {
			t.Fatalf("Quantile(%v) = %d, want exactly 12345", q, got)
		}
	}
	if h.Min() != 12345 || h.Max() != 12345 || h.Mean() != 12345 {
		t.Fatalf("single-sample stats wrong: min=%d max=%d mean=%v", h.Min(), h.Max(), h.Mean())
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	huge := int64(math.MaxInt64)
	h.Observe(huge)
	h.Observe(1 << 50) // also past the last finite bucket boundary
	if h.counts[NumBuckets-1] != 2 {
		t.Fatalf("overflow bucket count = %d, want 2", h.counts[NumBuckets-1])
	}
	if h.Max() != huge {
		t.Fatalf("Max = %d, want %d", h.Max(), huge)
	}
	// Quantiles in the overflow bucket must clamp to the observed max,
	// not interpolate toward the int64 ceiling.
	if got := h.Quantile(1.0); got != huge {
		t.Fatalf("Quantile(1.0) = %d, want %d", got, huge)
	}
	if got := h.Quantile(0.5); got < 1<<50 || got > huge {
		t.Fatalf("Quantile(0.5) = %d outside observed range", got)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 4096; v *= 3 {
		for i := 0; i < 7; i++ {
			h.Observe(v + int64(i))
		}
	}
	prev := int64(-1)
	for q := 0.05; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone: q=%v gives %d after %d", q, v, prev)
		}
		if v < h.Min() || v > h.Max() {
			t.Fatalf("Quantile(%v) = %d outside [min=%d, max=%d]", q, v, h.Min(), h.Max())
		}
		prev = v
	}
}

func TestBucketBounds(t *testing.T) {
	for v := int64(1); v > 0 && v < 1<<62; v *= 2 {
		for _, s := range []int64{v, v + 1, 2*v - 1} {
			b := bucketOf(s)
			lo, hi := BucketBounds(b)
			if s < lo || s >= hi {
				t.Fatalf("sample %d landed in bucket %d [%d, %d)", s, b, lo, hi)
			}
		}
	}
	if lo, _ := BucketBounds(0); lo != 0 {
		t.Fatalf("bucket 0 lo = %d, want 0", lo)
	}
}

func TestRingWrapAndDropped(t *testing.T) {
	r := New(1, 4)
	for i := int64(0); i < 10; i++ {
		r.Record(0, Event{TS: i, Kind: EvArrive, Arg: i})
	}
	ev := r.Events(0)
	if len(ev) != 4 {
		t.Fatalf("got %d buffered events, want 4", len(ev))
	}
	// Oldest six overwritten; survivors are 6..9 in append order.
	for i, e := range ev {
		if want := int64(6 + i); e.TS != want {
			t.Fatalf("event %d has TS %d, want %d (append order lost)", i, e.TS, want)
		}
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	// None of these may panic, and all accessors report empty.
	r.Record(0, Event{TS: 1, Kind: EvArrive, Arg: 1})
	r.LayerSpan(0, "ip-recv", 1, 2)
	r.LockAcquire(0)
	r.LockWait(0, "tcp-state", 1, 2, 1)
	r.LockHold(0, "tcp-state", 1, 2)
	r.Tick(1)
	r.Record(0, Event{TS: 1, Kind: EvPredictHit, Arg: 1})
	r.Record(0, Event{TS: 1, Kind: EvPredictMiss, Arg: 1})
	r.Record(0, Event{TS: 1, Kind: EvOOO, Arg: 2, Arg2: 1})
	r.Record(0, Event{TS: 1, Kind: EvRexmt, Arg: 1, Arg2: 1})
	r.Deliver(0, 2, 1)
	r.Record(0, Event{TS: 1, Kind: EvFault, Name: "drop"})
	if r.Enabled() {
		t.Fatal("nil recorder claims Enabled")
	}
	if r.Procs() != 0 || r.Events(0) != nil || r.Dropped() != 0 {
		t.Fatal("nil recorder reports non-empty state")
	}
	if r.WaitNames() != nil || r.LayerNames() != nil || r.TopLocks(3) != nil {
		t.Fatal("nil recorder reports names")
	}
	if r.WaitHistogram("x").Count() != 0 || r.EndToEnd().Count() != 0 {
		t.Fatal("nil recorder histogram access not empty")
	}
	if err := r.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
}

// TestUnnamedLocksSkipped: a nameless lock gets no event and no row of
// the lock table, but its wait and hold still reach the sampler's
// per-processor counters.
func TestUnnamedLocksSkipped(t *testing.T) {
	r := New(1, 16)
	reg := telemetry.NewRegistry(0)
	r.Tel = telemetry.NewSampler(reg, 10, 1)
	r.LockWait(0, "", 1, 100, 2)
	r.LockHold(0, "", 1, 100)
	if len(r.Events(0)) != 0 {
		t.Fatal("empty-name lock events recorded")
	}
	if len(r.WaitNames()) != 0 || len(r.TopLocks(10)) != 0 {
		t.Fatal("empty-name lock fed the lock table")
	}
	r.Tick(10)
	for _, se := range reg.Series() {
		_, v := se.Samples()
		want := map[string]int64{"lock-wait-ns": 100, "lock-hold-ns": 100, "lock-acquires": 0}[se.Name]
		if len(v) != 1 || v[0] != want {
			t.Errorf("%s = %v, want [%d]", se.Name, v, want)
		}
	}
}

// TestRinglessRecorder: a recorder built with a negative depth (a run
// that samples without tracing) allocates no event rings and records
// no events, yet keeps the same lock table and feeds its sampler.
func TestRinglessRecorder(t *testing.T) {
	reg := telemetry.NewRegistry(0)
	r := New(2, -1)
	r.Tel = telemetry.NewSampler(reg, 10, 2)
	if r.rings != nil || r.Enabled() || r.Procs() != 0 {
		t.Fatalf("ringless recorder has %d rings, Enabled %v", len(r.rings), r.Enabled())
	}
	r.Record(0, Event{TS: 1, Kind: EvArrive, Arg: 1})
	r.LayerSpan(1, "ip-recv", 1, 5)
	r.Deliver(0, 9, 1)
	r.LockAcquire(1)
	r.LockWait(1, "tcp-state", 2, 30, 0)
	r.LockHold(1, "tcp-state", 32, 7)
	if len(r.LayerNames()) != 0 || r.EndToEnd().Count() != 0 || r.Dropped() != 0 {
		t.Error("ringless recorder recorded events")
	}
	if h := r.WaitHistogram("tcp-state"); h.Count() != 1 || h.Sum() != 30 {
		t.Errorf("lock table: n=%d sum=%d, want 1/30", h.Count(), h.Sum())
	}
	r.Tick(10)
	var got []int64
	for _, se := range reg.Series() {
		if se.Proc == 1 {
			_, v := se.Samples()
			got = append(got, v...)
		}
	}
	if len(got) != 3 || got[0] != 30 || got[1] != 7 || got[2] != 1 {
		t.Errorf("proc 1 wait/hold/acquires = %v, want [30 7 1]", got)
	}
}

// TestTopLocksOrdering: locks rank by total wait descending with name
// as the tiebreak, holder waits attribute to the right buckets, and the
// returned slices are copies.
func TestTopLocksOrdering(t *testing.T) {
	r := New(2, 16)
	r.LockWait(0, "b", 0, 50, 1)
	r.LockWait(1, "a", 0, 30, 0)
	r.LockWait(0, "c", 0, 50, -1) // unknown holder
	r.LockWait(1, "c", 0, 10, 5)  // out-of-range holder folds to unknown

	top := r.TopLocks(10)
	if len(top) != 3 {
		t.Fatalf("len(top) = %d, want 3", len(top))
	}
	if top[0].Name != "c" || top[0].WaitNs != 60 || top[0].Contended != 2 {
		t.Errorf("top[0] = %+v, want c/60/2", top[0])
	}
	if top[1].Name != "b" || top[2].Name != "a" {
		t.Errorf("order = %s,%s,%s, want c,b,a", top[0].Name, top[1].Name, top[2].Name)
	}
	// "c": both waits had unknown holders -> last slot.
	if unk := top[0].ByHolder[len(top[0].ByHolder)-1]; unk != 60 {
		t.Errorf("unknown-holder bucket = %d, want 60", unk)
	}
	if top[1].ByHolder[1] != 50 {
		t.Errorf("b holder p1 = %d, want 50", top[1].ByHolder[1])
	}
	top[0].ByHolder[0] = 999
	if r.TopLocks(1)[0].ByHolder[0] == 999 {
		t.Error("TopLocks must deep-copy holder slices")
	}
	if len(r.TopLocks(1)) != 1 {
		t.Error("TopLocks(1) returned more than one row")
	}
}

func TestDeliverUnstampedSkipped(t *testing.T) {
	r := New(1, 16)
	r.Deliver(0, 100, 0)  // unstamped (control/ack frames)
	r.Deliver(0, 100, -5) // never stamped
	if r.EndToEnd().Count() != 0 || len(r.Events(0)) != 0 {
		t.Fatal("unstamped deliveries recorded")
	}
	r.Deliver(0, 100, 40)
	if r.EndToEnd().Count() != 1 || r.EndToEnd().Max() != 60 {
		t.Fatalf("stamped delivery: n=%d max=%d, want 1/60",
			r.EndToEnd().Count(), r.EndToEnd().Max())
	}
}

func TestProcClamping(t *testing.T) {
	r := New(2, 8)
	r.Record(-3, Event{TS: 1, Kind: EvArrive, Arg: 0}) // clamps to track 0
	r.Record(99, Event{TS: 2, Kind: EvArrive, Arg: 0}) // clamps to last track
	if len(r.Events(0)) != 1 || len(r.Events(1)) != 1 {
		t.Fatalf("proc clamping lost events: %d/%d",
			len(r.Events(0)), len(r.Events(1)))
	}
}

// TestChromeTraceParses round-trips the exporter output through
// encoding/json and checks the invariants Perfetto relies on.
func TestChromeTraceParses(t *testing.T) {
	r := New(2, 64)
	r.Record(0, Event{TS: 10, Kind: EvArrive, Arg: 1})
	r.LayerSpan(0, "fddi-recv", 10, 500)
	r.LockWait(1, "tcp-state", 20, 300, 0)
	r.LockHold(1, "tcp-state", 320, 40)
	r.Record(0, Event{TS: 30, Kind: EvPredictHit, Arg: 7})
	r.Record(0, Event{TS: 31, Kind: EvPredictMiss, Arg: 8})
	r.Record(1, Event{TS: 40, Kind: EvOOO, Arg: 9, Arg2: 8})
	r.Record(1, Event{TS: 50, Kind: EvRexmt, Arg: 9, Arg2: 1})
	r.Deliver(0, 700, 10)
	r.Record(0, Event{TS: 60, Kind: EvFault, Name: "drop"})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v\n%s", err, buf.String())
	}
	var spans, instants, meta int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			spans++
			if _, ok := e["dur"]; !ok {
				t.Fatalf("complete event without dur: %v", e)
			}
		case "i":
			instants++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
		if e["ph"] != "M" {
			if _, ok := e["ts"]; !ok {
				t.Fatalf("event without ts: %v", e)
			}
		}
	}
	// 4 span records (layer, wait, hold, deliver), 6 instants, and
	// metadata for the process plus both tracks: name and sort index
	// for each of process, p00, p01.
	if spans != 4 || instants != 6 || meta != 6 {
		t.Fatalf("spans/instants/meta = %d/%d/%d, want 4/6/6", spans, instants, meta)
	}
}

// TestChromeTraceEmptyRecorder: an empty recorder must still export a
// valid JSON document (Perfetto refuses truncated files, so validity
// cannot depend on at least one event existing).
func TestChromeTraceEmptyRecorder(t *testing.T) {
	var buf bytes.Buffer
	if err := New(1, 4).WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("empty-recorder output is not valid JSON:\n%s", buf.String())
	}

	buf.Reset()
	var nilRec *Recorder
	if err := nilRec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil-recorder WriteChromeTrace: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil-recorder output is not valid JSON:\n%s", buf.String())
	}
}

// TestChromeTraceCounterOnly: counter tracks alone (no recorder events,
// e.g. sampling without tracing a single packet) produce a valid
// document of "C" events, sorted by (proc, name), with non-finite
// values degraded to zero rather than emitted as invalid JSON.
func TestChromeTraceCounterOnly(t *testing.T) {
	var nilRec *Recorder
	tracks := []CounterTrack{
		{Name: "zz", Proc: 1, TS: []int64{1000}, V: []float64{2}},
		{Name: "aa", Proc: 1, TS: []int64{1000}, V: []float64{1}},
		{Name: "global", Proc: -1, TS: []int64{1000, 2000}, V: []float64{3.5, math.Inf(1)}},
	}
	var buf bytes.Buffer
	if err := nilRec.WriteChromeTrace(&buf, tracks...); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("counter-only output is not valid JSON: %v\n%s", err, buf.String())
	}
	var names []string
	var infVal float64 = -1
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "C":
			names = append(names, e["name"].(string))
			if len(names) == 2 { // global's second sample (the +Inf)
				infVal = e["args"].(map[string]any)["value"].(float64)
			}
		case "M": // process/track metadata is fine alongside counters
		default:
			t.Fatalf("unexpected phase %v in counter-only trace", e["ph"])
		}
	}
	// Proc -1 sorts first, then proc 1's tracks by name.
	want := []string{"global", "global", "aa", "zz"}
	if len(names) != len(want) {
		t.Fatalf("counter events = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("counter order = %v, want %v", names, want)
		}
	}
	// The +Inf sample must have been written as 0.
	if infVal != 0 {
		t.Errorf("non-finite counter value exported as %v, want 0", infVal)
	}
}

// TestHistogramSumSaturates: Sum must clamp at MaxInt64 instead of
// wrapping negative when absorbing huge samples.
func TestHistogramSumSaturates(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxInt64)
	h.Observe(math.MaxInt64)
	if got := h.Sum(); got != math.MaxInt64 {
		t.Errorf("Sum after two MaxInt64 observations = %d, want MaxInt64", got)
	}
	if h.Count() != 2 {
		t.Errorf("Count = %d, want 2", h.Count())
	}
	if h.Mean() <= 0 {
		t.Errorf("Mean = %v, want positive (saturated sum over count)", h.Mean())
	}
}
