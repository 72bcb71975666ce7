// Package steer is the receive-side flow-steering subsystem: it decides
// which virtual processor an arriving packet is dispatched to, the
// question the paper's "one connection per processor" escape hatch
// (Fig 12) leaves unanswered. It models the three mechanisms production
// NICs use:
//
//   - RSS: a Toeplitz hash over the 4-tuple indexes a fixed-size
//     indirection table of hash buckets, each mapped to a processor.
//     Stateless, perfectly deterministic, and blind to load.
//   - Flow Director: a bounded exact-match flow table (LRU-evicting,
//     per-bucket locked with sim locks so its contention is measured,
//     not assumed) pins a flow to the processor that last consumed it —
//     the application-targeted receive of Intel's ATR. When a flow's
//     pinned processor changes, packets in flight to the old processor
//     race packets steered to the new one: the reordering mechanism of
//     Wu et al., "Why Does Flow Director Cause Packet Reordering?".
//   - Rebalancing: a monitor samples per-processor queue depth in
//     virtual time and migrates the hottest hash bucket away from the
//     most loaded processor when imbalance exceeds a threshold. After
//     each migration a configurable quiescence delay holds further
//     migrations while the queues settle, trading migration-induced
//     reordering (each remap inverts the in-flight packets of the
//     moved flows) against peak imbalance (a held rebalancer reacts
//     slower).
//
// The Steerer runs inside the deterministic simulator: decisions depend
// only on configuration, seeds and virtual-time order, never on host
// scheduling.
package steer

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Policy selects the dispatch policy.
type Policy int

const (
	// PolicyPacket sprays packets round-robin across processors —
	// packet-level parallelism's implicit dispatch, maximally balanced
	// and maximally affinity-blind.
	PolicyPacket Policy = iota
	// PolicyRSS hashes the 4-tuple through the static indirection table.
	PolicyRSS
	// PolicyFlowDirector consults the exact-match flow table first and
	// falls back to RSS on a miss.
	PolicyFlowDirector
	// PolicyRebalance is RSS plus the dynamic bucket rebalancer.
	PolicyRebalance
)

// policyFlags are the command-line spellings, policyNames the reports'.
var (
	policyFlags = []string{PolicyPacket: "rr", PolicyRSS: "rss", PolicyFlowDirector: "fdir", PolicyRebalance: "rebalance"}
	policyNames = []string{PolicyPacket: "packet-rr", PolicyRSS: "rss", PolicyFlowDirector: "flow-director", PolicyRebalance: "rss+rebalance"}
)

func (p Policy) String() string { return sim.EnumName(policyNames, p) }

// Set parses a policy by either spelling (flag.Value).
func (p *Policy) Set(s string) error {
	return sim.SetEnum(p, "steering policy", s, policyFlags, policyNames)
}

// Config parameterizes the steering subsystem. The zero value means
// steering is disabled and the stack keeps its fixed conn==proc wiring.
type Config struct {
	// Enabled switches the dispatch subsystem on.
	Enabled bool
	// Policy selects the dispatch policy.
	Policy Policy
	// LockKind selects the sim lock protecting each flow-table bucket.
	LockKind sim.LockKind
	// RingCapacity bounds each processor's dispatch queue (default 64).
	// A full ring drops the arrival, as a NIC ring would.
	RingCapacity int
	// RebalancePeriodNs is the monitor's sampling period in virtual
	// time (default 1ms).
	RebalancePeriodNs int64
	// ImbalanceThresholdPct triggers a bucket migration when the
	// deepest queue exceeds the mean depth by this percentage
	// (default 50).
	ImbalanceThresholdPct int
	// QuiescenceNs holds the rebalancer after each bucket migration:
	// no further buckets move until the delay expires and the queues
	// have had time to settle. Longer delays bound the remap rate and
	// with it the migration-induced reordering, at the price of slower
	// rebalancing (higher peak imbalance). 0 allows a migration at
	// every over-threshold sample.
	QuiescenceNs int64
}

// WithDefaults fills unset fields with the defaults above.
func (c Config) WithDefaults() Config {
	if c.RingCapacity <= 0 {
		c.RingCapacity = 64
	}
	if c.RebalancePeriodNs <= 0 {
		c.RebalancePeriodNs = 1_000_000
	}
	if c.ImbalanceThresholdPct <= 0 {
		c.ImbalanceThresholdPct = 50
	}
	return c
}

// The table sizes every stack steers with.
const (
	// tableBuckets is the indirection table size, like small NIC RETA
	// tables; a power of two, since Bucket masks the hash with it.
	tableBuckets = 128
	// flowTableSize bounds the exact-match flow table. Below the live
	// flow count it forces the LRU thrash real ATR tables exhibit.
	flowTableSize = 128
	// flowTableLocks is the number of independently locked flow-table
	// buckets, at most flowTableSize.
	flowTableLocks = 16
)

// Stats counts steering activity. Counters are cumulative; callers
// snapshot around the measurement interval.
type Stats struct {
	Decisions int64 // dispatch decisions made
	FlowHits  int64 // exact-match table hits
	FlowMiss  int64 // exact-match misses (fell back to RSS)
	Repins    int64 // flow entries whose pinned processor changed
	Moves     int64 // indirection buckets migrated by the rebalancer
	Held      int64 // over-threshold samples suppressed by quiescence
	Evictions int64 // LRU evictions from the flow table
	Samples   int64 // monitor samples taken
	// PeakQueuePct is the worst sampled queue-depth imbalance,
	// (max-mean)/mean in percent, over the whole run.
	PeakQueuePct float64
}

// bucketEntry is one indirection-table slot.
type bucketEntry struct {
	proc int32
}

// flowEntry is one exact-match table entry.
type flowEntry struct {
	flow uint64
	proc int32
	used int64 // LRU stamp (virtual ns of last touch)
}

// flowBucket is one independently locked slice of the flow table.
type flowBucket struct {
	lock    *sim.Lock
	entries []flowEntry
	cap     int
}

// Steerer makes dispatch decisions for one stack instance. All methods
// run on simulation threads; the engine serializes them.
type Steerer struct {
	cfg   Config
	procs int

	toeplitz *toeplitzTable
	table    []bucketEntry
	buckets  []flowBucket

	rr         int64 // PolicyPacket round-robin cursor
	bucketPkts []int64
	prevPkts   []int64
	holdUntil  int64 // rebalancer quiescent until this virtual time

	stats Stats
}

// New builds a Steerer for the given processor count.
func New(cfg Config, procs int) *Steerer {
	return newSized(cfg, procs, tableBuckets, flowTableSize, flowTableLocks)
}

// newSized is New with the table sizes given: buckets indirection
// buckets (a power of two), and a flow table of flows entries behind
// locks independently locked buckets.
func newSized(cfg Config, procs, buckets, flows, locks int) *Steerer {
	cfg = cfg.WithDefaults()
	s := &Steerer{
		cfg:        cfg,
		procs:      procs,
		toeplitz:   newToeplitzTable(&DefaultToeplitzKey),
		table:      make([]bucketEntry, buckets),
		bucketPkts: make([]int64, buckets),
		prevPkts:   make([]int64, buckets),
	}
	for i := range s.table {
		s.table[i].proc = int32(i % procs)
	}
	if cfg.Policy == PolicyFlowDirector {
		per := max(flows/locks, 1)
		s.buckets = make([]flowBucket, locks)
		for i := range s.buckets {
			s.buckets[i].lock = sim.NewLock(cfg.LockKind, fmt.Sprintf("fdir-bucket%d", i))
			s.buckets[i].cap = per
		}
	}
	return s
}

// Hash computes the Toeplitz RSS hash of a 4-tuple, a pure function of
// the tuple and the (fixed) key; table-driven, it is cheaper to compute
// again than to look up in a per-flow memo.
func (s *Steerer) Hash(tu Tuple) uint32 {
	return s.toeplitz.hash(tu.bytes())
}

// Bucket maps a hash to its indirection bucket.
func (s *Steerer) Bucket(hash uint32) int {
	return int(hash) & (len(s.table) - 1)
}

// Decide returns the processor the packet identified by (flow, hash)
// should be dispatched to. flow is the exact-match identity of the
// (possibly churned) connection; hash its Toeplitz hash.
func (s *Steerer) Decide(t *sim.Thread, flow uint64, hash uint32) int {
	s.stats.Decisions++
	// The rebalancer's heat signal counts every decision against its
	// hash bucket, whichever path serves it: a policy that combines
	// exact-match hits with rebalancing must still see hot buckets as
	// hot, so Sample migrates the genuinely hottest one.
	b := s.Bucket(hash)
	s.bucketPkts[b]++
	switch s.cfg.Policy {
	case PolicyPacket:
		p := int(s.rr % int64(s.procs))
		s.rr++
		return p
	case PolicyFlowDirector:
		if p, ok := s.lookupFlow(t, flow, hash); ok {
			s.stats.FlowHits++
			return p
		}
		s.stats.FlowMiss++
	}
	return int(s.table[b].proc)
}

// lookupFlow consults the exact-match table under the bucket lock.
func (s *Steerer) lookupFlow(t *sim.Thread, flow uint64, hash uint32) (int, bool) {
	fb := &s.buckets[int(hash)%len(s.buckets)]
	fb.lock.Acquire(t)
	defer fb.lock.Release(t)
	t.Charge(t.Engine().C.Stack.MapHash)
	for i := range fb.entries {
		if fb.entries[i].flow == flow {
			fb.entries[i].used = t.Now()
			return int(fb.entries[i].proc), true
		}
	}
	return 0, false
}

// Pin records that the processor proc just consumed flow — the ATR
// sampling of "the processor that last transmitted on it". On a full
// bucket the least recently used entry is evicted (flow-evict); a pin
// that moves an existing entry to a new processor is the Wu et al.
// migration (steer-migrate).
func (s *Steerer) Pin(t *sim.Thread, flow uint64, hash uint32, proc int) {
	if s.cfg.Policy != PolicyFlowDirector {
		return
	}
	fb := &s.buckets[int(hash)%len(s.buckets)]
	fb.lock.Acquire(t)
	defer fb.lock.Release(t)
	t.Charge(t.Engine().C.Stack.MapHash)
	now := t.Now()
	for i := range fb.entries {
		if fb.entries[i].flow == flow {
			fb.entries[i].used = now
			if int(fb.entries[i].proc) != proc {
				fb.entries[i].proc = int32(proc)
				s.stats.Repins++
				t.Engine().Rec.Record(t.Proc, trace.Event{TS: now, Kind: trace.EvSteerMigrate, Name: "flow", Arg: int64(flow), Arg2: int64(proc)})
			}
			return
		}
	}
	if len(fb.entries) >= fb.cap {
		// Evict the least recently used entry.
		v := 0
		for i := 1; i < len(fb.entries); i++ {
			if fb.entries[i].used < fb.entries[v].used {
				v = i
			}
		}
		s.stats.Evictions++
		t.Engine().Rec.Record(t.Proc, trace.Event{TS: now, Kind: trace.EvFlowEvict, Arg: int64(fb.entries[v].flow)})
		fb.entries[v] = flowEntry{flow: flow, proc: int32(proc), used: now}
		return
	}
	fb.entries = append(fb.entries, flowEntry{flow: flow, proc: int32(proc), used: now})
}

// Sample is the monitor tick: it records queue-depth imbalance and,
// under PolicyRebalance, migrates the hottest bucket of the deepest
// queue's processor to the shallowest queue's processor. After a
// migration the rebalancer is quiescent for QuiescenceNs.
func (s *Steerer) Sample(t *sim.Thread, depths []int) {
	s.stats.Samples++
	max, min, sum := 0, depths[0], 0
	argMax, argMin := 0, 0
	for p, d := range depths {
		sum += d
		if d > max {
			max, argMax = d, p
		}
		if d < min {
			min, argMin = d, p
		}
	}
	mean := float64(sum) / float64(len(depths))
	if mean > 0 {
		pct := 100 * (float64(max) - mean) / mean
		if pct > s.stats.PeakQueuePct {
			s.stats.PeakQueuePct = pct
		}
	}
	if s.cfg.Policy != PolicyRebalance {
		return
	}
	if mean <= 0 || 100*(float64(max)-mean) < float64(s.cfg.ImbalanceThresholdPct)*mean {
		copy(s.prevPkts, s.bucketPkts)
		return
	}
	now := t.Now()
	if now < s.holdUntil {
		// Quiescence: a recent migration is still settling. Holding the
		// rebalancer bounds the remap rate — and each remap inverts the
		// moved flows' in-flight packets, so a longer hold trades
		// reordering for peak imbalance.
		s.stats.Held++
		copy(s.prevPkts, s.bucketPkts)
		return
	}
	// Hottest bucket currently mapped to the overloaded processor, by
	// packets steered since the last sample.
	best, bestPkts := -1, int64(0)
	for b := range s.table {
		if int(s.table[b].proc) != argMax {
			continue
		}
		if d := s.bucketPkts[b] - s.prevPkts[b]; d > bestPkts {
			best, bestPkts = b, d
		}
	}
	copy(s.prevPkts, s.bucketPkts)
	if best < 0 {
		return
	}
	s.table[best].proc = int32(argMin)
	s.holdUntil = now + s.cfg.QuiescenceNs
	s.stats.Moves++
	t.Engine().Rec.Record(t.Proc, trace.Event{TS: now, Kind: trace.EvSteerMigrate, Name: "bucket", Arg: int64(best), Arg2: int64(argMin)})
}

// Stats returns a copy of the counters.
func (s *Steerer) Stats() Stats { return s.stats }

// ResetPeak clears the peak queue-imbalance watermark so a caller can
// scope it to a measurement interval.
func (s *Steerer) ResetPeak() { s.stats.PeakQueuePct = 0 }

// LockWaitNs totals virtual time spent waiting on flow-table bucket
// locks — the subsystem's measured contention.
func (s *Steerer) LockWaitNs() int64 {
	var w int64
	for i := range s.buckets {
		w += s.buckets[i].lock.Stats().WaitNs
	}
	return w
}

// LockStats aggregates the flow-table bucket lock statistics.
func (s *Steerer) LockStats() sim.LockStats {
	var agg sim.LockStats
	for i := range s.buckets {
		st := s.buckets[i].lock.Stats()
		agg.Acquires += st.Acquires
		agg.Contended += st.Contended
		agg.WaitNs += st.WaitNs
		agg.HoldNs += st.HoldNs
		if st.MaxWaiters > agg.MaxWaiters {
			agg.MaxWaiters = st.MaxWaiters
		}
	}
	return agg
}
