// Package telemetry implements the virtual-time metrics registry and
// sampler: named counter and gauge series that protocol code publishes
// into, snapshotted into per-series ring buffers on a fixed virtual-time
// period.
//
// The paper's results are end-of-run aggregates; this package keeps the
// timeline. The sampler is driven by the simulation engine's clock
// (sim.Engine ticks its observer, the flight recorder in internal/trace,
// which ticks the sampler, whenever virtual time advances), never by a
// simulated thread: sampling charges no virtual time, draws no RNG and
// spawns no thread, so a sampled run is bit-identical to an unsampled
// one — the same neutrality guarantee the recorder honors.
//
// Determinism: series snapshot in registration order, registration
// order is fixed by construction (core registers everything in one
// place), and every data structure iterates slices, never maps. Every
// method is safe on a nil receiver, so the disabled path is a single
// pointer test at each publish site.
package telemetry

// DefaultDepth is the per-series sample ring capacity when none is
// given: at the default 1 ms period it holds over four virtual seconds.
const DefaultDepth = 4096

// DefaultPeriodNs is the sampling period tools use when asked to sample
// without an explicit period: 1 virtual millisecond.
const DefaultPeriodNs = 1_000_000

// Kind distinguishes monotonic counters from instant gauges.
type Kind uint8

// Series kinds.
const (
	// KindCounter is a monotonically increasing count; exporters
	// usually show its per-period delta (a rate).
	KindCounter Kind = iota
	// KindGauge is an instant value read at each sample (queue depth,
	// cumulative protocol counter owned elsewhere).
	KindGauge
)

// String names the kind for exports.
func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Counter is a monotonic int64 published by instrumented code. A nil
// Counter absorbs updates silently.
type Counter struct{ v int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Series is one registered metric: identity plus the sample ring. When
// the ring is full the oldest samples are overwritten (flight-recorder
// semantics) and counted as dropped.
type Series struct {
	// Name identifies the metric; Proc is the owning virtual processor
	// (-1 for run-global series).
	Name string
	Proc int
	Kind Kind

	counter *Counter
	read    func() int64

	ts []int64 // sample timestamps, virtual ns (ring)
	v  []int64 // sample values (ring)
	n  int64   // total samples ever taken
}

// value reads the series' current value.
func (se *Series) value() int64 {
	if se.read != nil {
		return se.read()
	}
	return se.counter.Value()
}

func (se *Series) sample(now int64) {
	i := se.n % int64(len(se.ts))
	se.ts[i] = now
	se.v[i] = se.value()
	se.n++
}

// Len returns the number of retained samples.
func (se *Series) Len() int {
	if se == nil {
		return 0
	}
	if se.n < int64(len(se.ts)) {
		return int(se.n)
	}
	return len(se.ts)
}

// Samples returns copies of the retained (timestamp, value) pairs in
// sample order, oldest first.
func (se *Series) Samples() (ts, v []int64) {
	if se == nil || se.n == 0 {
		return nil, nil
	}
	c := int64(len(se.ts))
	start := int64(0)
	if se.n > c {
		start = se.n - c
	}
	for i := start; i < se.n; i++ {
		ts = append(ts, se.ts[i%c])
		v = append(v, se.v[i%c])
	}
	return ts, v
}

// Dropped returns the samples lost to ring overwrite.
func (se *Series) Dropped() int64 {
	if se == nil {
		return 0
	}
	if d := se.n - int64(len(se.ts)); d > 0 {
		return d
	}
	return 0
}

// Registry holds the registered series in a fixed order: snapshots,
// dumps and exports all iterate registration order, so two runs that
// register identically produce identical artifacts.
type Registry struct {
	depth  int
	series []*Series
}

// NewRegistry builds a registry with the given per-series ring depth
// (DefaultDepth if depth <= 0).
func NewRegistry(depth int) *Registry {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Registry{depth: depth}
}

func (r *Registry) add(name string, proc int, kind Kind) *Series {
	se := &Series{
		Name: name,
		Proc: proc,
		Kind: kind,
		ts:   make([]int64, r.depth),
		v:    make([]int64, r.depth),
	}
	r.series = append(r.series, se)
	return se
}

// Counter registers a counter series and returns the counter the
// publisher increments. Nil registries return a nil (absorbing)
// counter.
func (r *Registry) Counter(name string, proc int) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.add(name, proc, KindCounter).counter = c
	return c
}

// Gauge registers a gauge series whose value is read() at each sample.
// The closure runs on the engine's scheduling path: it must only read
// engine-serialized state, never charge time or draw randomness.
func (r *Registry) Gauge(name string, proc int, read func() int64) {
	if r == nil {
		return
	}
	r.add(name, proc, KindGauge).read = read
}

// Series returns the registered series in registration order.
func (r *Registry) Series() []*Series {
	if r == nil {
		return nil
	}
	return r.series
}

// snapshot samples every series at virtual time now.
func (r *Registry) snapshot(now int64) {
	for _, se := range r.series {
		se.sample(now)
	}
}

// Sampler owns the periodic snapshot schedule plus the standard
// per-processor lock series that the simulator's locks publish into
// through the flight recorder (internal/trace), which clamps the
// processor index and keeps the per-lock table. Construct with
// NewSampler; a nil Sampler is a valid disabled sampler.
type Sampler struct {
	reg    *Registry
	period int64
	next   int64

	lockWaitC []*Counter
	lockHoldC []*Counter
	lockAcqC  []*Counter
}

// NewSampler builds a sampler over reg with the given period (virtual
// ns) and processor-track count, pre-registering the per-processor
// lock-wait/lock-hold/lock-acquire counter series in fixed order.
// A period <= 0 returns nil (sampling disabled).
func NewSampler(reg *Registry, periodNs int64, procs int) *Sampler {
	if reg == nil || periodNs <= 0 {
		return nil
	}
	s := &Sampler{reg: reg, period: periodNs, next: periodNs}
	for p := 0; p < max(procs, 1); p++ {
		s.lockWaitC = append(s.lockWaitC, reg.Counter("lock-wait-ns", p))
		s.lockHoldC = append(s.lockHoldC, reg.Counter("lock-hold-ns", p))
		s.lockAcqC = append(s.lockAcqC, reg.Counter("lock-acquires", p))
	}
	return s
}

// Registry returns the underlying registry (nil on nil).
func (s *Sampler) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Period returns the sampling period in virtual ns (0 on nil).
func (s *Sampler) Period() int64 {
	if s == nil {
		return 0
	}
	return s.period
}

// Tick advances the sampler to virtual time now, snapshotting every
// series once per elapsed period. Sample timestamps land exactly on
// period boundaries regardless of how the clock jumps, so the sample
// grid is a pure function of the period. The engine calls this from
// its scheduling path; it is nil-safe and free when no boundary passed.
func (s *Sampler) Tick(now int64) {
	if s == nil {
		return
	}
	for now >= s.next {
		s.reg.snapshot(s.next)
		s.next += s.period
	}
}

// LockWait publishes ns of lock wait by proc, a track below the procs
// the sampler was built with.
func (s *Sampler) LockWait(proc int, ns int64) {
	if s != nil {
		s.lockWaitC[proc].Add(ns)
	}
}

// LockHold publishes one hold span of ns ending on proc.
func (s *Sampler) LockHold(proc int, ns int64) {
	if s != nil {
		s.lockHoldC[proc].Add(ns)
	}
}

// LockAcquire publishes one lock acquisition (contended or not) by
// proc.
func (s *Sampler) LockAcquire(proc int) {
	if s != nil {
		s.lockAcqC[proc].Inc()
	}
}
