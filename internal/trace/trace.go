// Package trace implements the packet flight recorder: per-processor
// ring buffers of timestamped events driven by the simulator's virtual
// clock, plus log-bucketed histograms of lock wait times, per-layer
// residence times and end-to-end packet latency.
//
// The recorder is the reproduction's stand-in for the paper's Pixie
// profiles — but where Pixie only aggregates ("90 percent of the time
// is spent waiting to acquire the TCP connection state lock"), the
// flight recorder keeps the timeline: which packet waited, on which
// lock, on which processor, for how long, and who held the lock
// meanwhile. Events can be exported as Chrome trace-event JSON
// (Perfetto-loadable, one track per virtual processor; see chrome.go)
// or summarized as quantiles.
//
// The recorder is the simulation engine's one observer: every lock
// event reaches it once, it keeps the one per-lock table of waits (the
// histogram plus the wait split by holder, which TopLocks ranks), and
// it feeds and ticks the telemetry sampler when one is attached. A
// recorder built without rings (New with a negative depth) records no
// events and keeps only that table and the sampler: a run that samples
// without tracing.
//
// Every recording method is safe on a nil *Recorder and returns
// immediately, so instrumented code guards with a single nil check and
// the disabled path stays allocation-free. The simulation engine
// serializes thread execution, so the recorder needs no internal
// locking; the per-processor buffers exist to keep tracks separate,
// not for concurrency.
package trace

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/telemetry"
)

// EventKind classifies flight-recorder events.
type EventKind uint8

// Event kinds. Span kinds carry a duration; instant kinds do not.
const (
	// EvArrive marks a packet entering the stack at the driver (span
	// of zero length; Arg is the driver-assigned sequence/offset).
	EvArrive EventKind = iota
	// EvLayer is a layer residence span: Name is the layer, Dur the
	// inclusive time from entry to exit (nested layers included).
	EvLayer
	// EvLockWait is a contended lock acquisition: the span runs from
	// the start of waiting to the grant. Name is the lock.
	EvLockWait
	// EvLockHold is a lock hold span from grant to release. Name is
	// the lock.
	EvLockHold
	// EvPredictHit marks a header-prediction fast-path hit (Arg: seq).
	EvPredictHit
	// EvPredictMiss marks a segment taking the slow path (Arg: seq).
	EvPredictMiss
	// EvOOO marks a data segment arriving out of order at TCP. Arg is
	// the arriving sequence number, Arg2 the expected one.
	EvOOO
	// EvRexmt marks a retransmission (Arg: seq; Arg2: 1 for fast).
	EvRexmt
	// EvDeliver is the end-to-end span of a delivered packet: from its
	// driver/application birth stamp to final consumption.
	EvDeliver
	// EvFault marks a fault-wire injection; Name is the fault kind.
	EvFault
	// EvSteerMigrate marks a steering migration: Name is "bucket" for
	// an indirection-table remap (Arg: bucket index) or "flow" for a
	// Flow-Director repin (Arg: flow id); Arg2 is the new processor.
	EvSteerMigrate
	// EvFlowEvict marks an LRU eviction from the Flow-Director table
	// (Arg: the evicted flow id).
	EvFlowEvict
	// EvBatchMerge marks one GRO coalesce: a wire segment absorbed into
	// a pending merged frame (Arg: the frame's segment count after the
	// merge).
	EvBatchMerge
	// EvBatchFlush marks a merged frame leaving the batching stage for
	// the stack. Name is the flush trigger ("maxsegs", "maxbytes",
	// "seq", "flow", "timeout", "window", "stop"); Arg is the segment
	// count, Arg2 the frame's total bytes.
	EvBatchFlush
)

// String names the kind for exports.
func (k EventKind) String() string {
	switch k {
	case EvArrive:
		return "arrive"
	case EvLayer:
		return "layer"
	case EvLockWait:
		return "lock-wait"
	case EvLockHold:
		return "lock-hold"
	case EvPredictHit:
		return "predict-hit"
	case EvPredictMiss:
		return "predict-miss"
	case EvOOO:
		return "out-of-order"
	case EvRexmt:
		return "retransmit"
	case EvDeliver:
		return "deliver"
	case EvFault:
		return "fault"
	case EvSteerMigrate:
		return "steer-migrate"
	case EvFlowEvict:
		return "flow-evict"
	case EvBatchMerge:
		return "batch-merge"
	case EvBatchFlush:
		return "batch-flush"
	}
	return "invalid"
}

// Event is one flight-recorder record. TS and Dur are virtual
// nanoseconds; Proc is the virtual processor of the recording thread.
type Event struct {
	TS   int64
	Dur  int64
	Arg  int64
	Arg2 int64
	Kind EventKind
	Proc int32
	Name string
}

// ring is one processor's fixed-capacity event buffer. When full it
// overwrites the oldest entries (flight-recorder semantics) and counts
// the overwritten events as dropped.
type ring struct {
	ev []Event
	n  int64 // total events ever appended
}

func (r *ring) push(e Event) {
	r.ev[r.n%int64(len(r.ev))] = e
	r.n++
}

// events returns the buffered events in append order.
func (r *ring) events() []Event {
	c := int64(len(r.ev))
	if r.n <= c {
		return r.ev[:r.n]
	}
	out := make([]Event, 0, c)
	for i := r.n - c; i < r.n; i++ {
		out = append(out, r.ev[i%c])
	}
	return out
}

func (r *ring) dropped() int64 {
	if d := r.n - int64(len(r.ev)); d > 0 {
		return d
	}
	return 0
}

// DefaultDepth is the per-processor ring capacity when none is given.
const DefaultDepth = 1 << 16

// Recorder is the flight recorder. Construct with New; a nil Recorder
// is a valid disabled recorder.
type Recorder struct {
	rings []ring // nil: no event timeline, only the lock table and Tel
	procs int

	// Tel, when non-nil, is the telemetry sampler the recorder feeds:
	// each lock event adds to its per-processor lock counters, and Tick
	// advances its sample grid.
	Tel *telemetry.Sampler

	lockWait map[string]*lockWaits // per-lock waits
	layer    map[string]*Histogram // per-layer residence time
	e2e      Histogram             // end-to-end packet latency
}

// lockWaits is one lock name's waits: their distribution, and the wait
// split by the processor that held the lock when each began (the last
// slot collects unknown holders).
type lockWaits struct {
	hist     Histogram
	byHolder []int64
}

// New builds a recorder with procs tracks and one ring per track of the
// given per-processor capacity (DefaultDepth if depth is 0). A negative
// depth builds no rings: the recorder then records no events and keeps
// only its lock table and its sampler.
func New(procs, depth int) *Recorder {
	r := &Recorder{
		procs:    max(procs, 1),
		lockWait: make(map[string]*lockWaits),
		layer:    make(map[string]*Histogram),
	}
	if depth < 0 {
		return r
	}
	if depth == 0 {
		depth = DefaultDepth
	}
	r.rings = make([]ring, r.procs)
	for i := range r.rings {
		r.rings[i].ev = make([]Event, depth)
	}
	return r
}

// Enabled reports whether the recorder records events (false for nil
// and for a recorder without rings).
func (r *Recorder) Enabled() bool { return r != nil && r.rings != nil }

// clamp folds an out-of-range processor index onto the nearest track.
func (r *Recorder) clamp(proc int) int { return min(max(proc, 0), r.procs-1) }

func (r *Recorder) push(proc int, e Event) {
	proc = r.clamp(proc)
	e.Proc = int32(proc)
	r.rings[proc].push(e)
}

// Tick advances the attached sampler to virtual time now; the engine
// calls it as its clock advances.
func (r *Recorder) Tick(now int64) {
	if r != nil {
		r.Tel.Tick(now)
	}
}

// Record appends an instant event to proc's track: any kind but the
// spans LayerSpan, LockWait, LockHold and Deliver record. The kind's
// doc says what Name, Arg and Arg2 carry.
func (r *Recorder) Record(proc int, e Event) {
	if r.Enabled() {
		r.push(proc, e)
	}
}

// LayerSpan records an inclusive residence span in the named layer and
// feeds the layer's residence histogram.
func (r *Recorder) LayerSpan(proc int, name string, start, dur int64) {
	if !r.Enabled() {
		return
	}
	r.push(proc, Event{TS: start, Dur: dur, Kind: EvLayer, Name: name})
	h := r.layer[name]
	if h == nil {
		h = &Histogram{}
		r.layer[name] = h
	}
	h.Observe(dur)
}

// LockAcquire counts one acquisition, contended or not, by proc.
func (r *Recorder) LockAcquire(proc int) {
	if r != nil {
		r.Tel.LockAcquire(r.clamp(proc))
	}
}

// LockWait records a contended acquisition's wait span (start .. grant)
// and adds it to the lock's row of the lock table. holder is the
// processor that held the lock when the waiter arrived (-1 if unknown).
// A nameless lock counts toward the sampler's per-processor wait but
// gets no event and no row.
func (r *Recorder) LockWait(proc int, name string, start, dur int64, holder int) {
	if r == nil {
		return
	}
	proc = r.clamp(proc)
	r.Tel.LockWait(proc, dur)
	if name == "" {
		return
	}
	if r.rings != nil {
		r.push(proc, Event{TS: start, Dur: dur, Kind: EvLockWait, Name: name, Arg: int64(holder)})
	}
	w := r.lockWait[name]
	if w == nil {
		w = &lockWaits{byHolder: make([]int64, r.procs+1)}
		r.lockWait[name] = w
	}
	w.hist.Observe(dur)
	if holder < 0 || holder >= r.procs {
		holder = r.procs
	}
	w.byHolder[holder] += dur
}

// LockHold records a hold span (grant .. release).
func (r *Recorder) LockHold(proc int, name string, start, dur int64) {
	if r == nil {
		return
	}
	proc = r.clamp(proc)
	r.Tel.LockHold(proc, dur)
	if name != "" && r.rings != nil {
		r.push(proc, Event{TS: start, Dur: dur, Kind: EvLockHold, Name: name})
	}
}

// Deliver records final consumption of a packet born at virtual time
// born (a driver or application stamp) and feeds the end-to-end
// latency histogram. born <= 0 records nothing.
func (r *Recorder) Deliver(proc int, ts, born int64) {
	if !r.Enabled() || born <= 0 {
		return
	}
	dur := ts - born
	if dur < 0 {
		dur = 0
	}
	r.push(proc, Event{TS: born, Dur: dur, Kind: EvDeliver})
	r.e2e.Observe(dur)
}

// Procs returns the number of per-processor event tracks (0 without
// rings).
func (r *Recorder) Procs() int {
	if r == nil {
		return 0
	}
	return len(r.rings)
}

// Events returns processor proc's buffered events in append order.
func (r *Recorder) Events(proc int) []Event {
	if r == nil || proc < 0 || proc >= len(r.rings) {
		return nil
	}
	return r.rings[proc].events()
}

// Dropped returns the total events overwritten across all rings.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	var d int64
	for i := range r.rings {
		d += r.rings[i].dropped()
	}
	return d
}

// WaitHistogram returns the wait-time histogram of the named lock (nil
// if that lock never contended).
func (r *Recorder) WaitHistogram(name string) *Histogram {
	if r == nil || r.lockWait[name] == nil {
		return nil
	}
	return &r.lockWait[name].hist
}

// WaitNames returns the sorted names of locks with recorded waits.
func (r *Recorder) WaitNames() []string {
	if r == nil {
		return nil
	}
	return sortedKeys(r.lockWait)
}

// LockAttr is one lock's contention attribution: total wait, wait
// count, and the wait time broken down by the processor that held the
// lock when each wait began. The last ByHolder slot collects unknown
// holders.
type LockAttr struct {
	Name      string
	WaitNs    int64
	Contended int64
	ByHolder  []int64
}

// TopLocks returns the n most-contended locks by total wait time (ties
// broken by name), copied so callers cannot perturb the table.
func (r *Recorder) TopLocks(n int) []LockAttr {
	if r == nil || n <= 0 {
		return nil
	}
	out := make([]LockAttr, 0, len(r.lockWait))
	for name, w := range r.lockWait {
		out = append(out, LockAttr{name, w.hist.Sum(), w.hist.Count(), append([]int64(nil), w.byHolder...)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitNs != out[j].WaitNs {
			return out[i].WaitNs > out[j].WaitNs
		}
		return out[i].Name < out[j].Name
	})
	return out[:min(n, len(out))]
}

// LayerHistogram returns the residence histogram of the named layer.
func (r *Recorder) LayerHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.layer[name]
}

// LayerNames returns the sorted names of layers with recorded spans.
func (r *Recorder) LayerNames() []string {
	if r == nil {
		return nil
	}
	return sortedKeys(r.layer)
}

// EndToEnd returns the end-to-end latency histogram (nil on nil).
func (r *Recorder) EndToEnd() *Histogram {
	if r == nil {
		return nil
	}
	return &r.e2e
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// ---- log-bucketed histogram ----

// NumBuckets is the histogram bucket count: bucket 0 holds values
// <= 0, bucket i (1 <= i < NumBuckets-1) holds [2^(i-1), 2^i), and the
// last bucket holds everything from 2^(NumBuckets-2) up (overflow).
const NumBuckets = 48

// Histogram is a log2-bucketed histogram of non-negative int64 samples
// (virtual nanoseconds). The zero value is ready to use.
type Histogram struct {
	counts [NumBuckets]int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // v in [2^(b-1), 2^b)
	if b > NumBuckets-1 {
		b = NumBuckets - 1
	}
	return b
}

// BucketBounds returns bucket i's half-open range [lo, hi). The last
// bucket's hi is the int64 maximum.
func BucketBounds(i int) (lo, hi int64) {
	switch {
	case i <= 0:
		return 0, 1
	case i >= NumBuckets-1:
		return 1 << (NumBuckets - 2), int64(^uint64(0) >> 1)
	default:
		return 1 << (i - 1), 1 << i
	}
}

// Observe adds one sample. Negative samples count into bucket 0 as 0.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	// Saturating add: a histogram that absorbs MaxInt64-scale samples
	// (or enough of them) must report MaxInt64, not a negative sum.
	if h.sum > math.MaxInt64-v {
		h.sum = math.MaxInt64
	} else {
		h.sum += v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the bucket where the rank falls, clamped to the
// observed [min, max] so single-sample and narrow distributions report
// exact values. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.n))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := BucketBounds(i)
			// Position of the rank within this bucket, interpolated.
			// Compare in float space first: in the overflow bucket
			// hi-lo approaches the int64 ceiling and converting the
			// interpolated value back would wrap negative.
			frac := float64(rank-cum) / float64(c)
			fv := float64(lo) + frac*float64(hi-lo)
			v := h.max
			if fv < float64(h.max) {
				v = int64(fv)
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
		cum += c
	}
	return h.max
}
