// Package workload generates many-connection heavy-traffic receive
// workloads for the steering experiments: a seeded open-loop arrival
// process over 64-4096 simulated connections with heavy-tailed flow
// sizes, connection churn and hot-connection skew (generalizing the
// stack's HotConnPct knob), plus the delivery-side sink that measures
// per-connection ordering and per-processor load.
//
// The generator is a pure function of its configuration and seed: the
// arrival stream never depends on service times or host scheduling, so
// steered runs stay bit-reproducible at any processor count.
package workload

import (
	"encoding/binary"
	"math"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config parameterizes the traffic generator and sink. Zero fields take
// the defaults noted below.
type Config struct {
	// ArrivalGapNs is the mean inter-arrival gap of the open-loop
	// Poisson-like arrival process (default 150000 ns, roughly one
	// processor's 1 KB UDP service time).
	ArrivalGapNs int64
	// HotConnPct sends this percentage of arrivals to the HotConns
	// lowest-numbered connections instead of a uniform pick.
	HotConnPct int
	// HotConns is the size of the hot subset (default 1).
	HotConns int
	// MeanFlowPkts is the mean flow length in packets. Flow sizes are
	// heavy-tailed (bounded Pareto, alpha 1.3); when a connection's
	// flow is exhausted the connection churns: its steering identity
	// re-keys as if a new ephemeral-port flow replaced it. 0 (the
	// default) disables churn.
	MeanFlowPkts int
	// AppMoveEvery migrates a connection's consuming application
	// thread to a random processor once per this many deliveries —
	// the flow-migration trigger of the Wu et al. reordering study.
	// 0 disables migration.
	AppMoveEvery int
	// Seed drives the generator and the sink's app-migration draws
	// (0: derived from the stack seed).
	Seed uint64
	// CompactSlots bounds the sink's exact per-connection state to a
	// direct-mapped table of this many slots (conn mod slots; a
	// collision evicts the previous occupant and resets its ordering
	// watermark). 0, the default, keeps one exact entry per connection.
	// With slots set, per-flow accounting is O(slots) memory at any
	// connection count — exact totals still come from the sketch-backed
	// telemetry; only misorder detection becomes approximate across
	// evictions (an evicted flow's watermark restarts, so reordering
	// that spans an eviction goes uncounted).
	CompactSlots int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.ArrivalGapNs <= 0 {
		c.ArrivalGapNs = 150_000
	}
	if c.HotConns <= 0 {
		c.HotConns = 1
	}
	if c.MeanFlowPkts < 0 {
		c.MeanFlowPkts = 0
	}
	return c
}

// Arrival is one generated packet arrival.
type Arrival struct {
	At   int64  // virtual arrival time
	Conn int    // connection index
	Seq  int64  // per-connection sequence number (monotonic across churn)
	Gen  uint32 // connection generation (bumps on churn)
}

// StampLen is the self-describing payload prefix: connection, sequence
// and generation, written by the driver and parsed by the Sink so
// ordering is measured end to end without plumbing metadata through
// the protocol layers.
const StampLen = 12

// EncodeStamp writes the arrival identity into a payload prefix.
func EncodeStamp(b []byte, conn int, seq int64, gen uint32) {
	binary.BigEndian.PutUint32(b[0:4], uint32(conn))
	binary.BigEndian.PutUint32(b[4:8], uint32(seq))
	binary.BigEndian.PutUint32(b[8:12], gen)
}

// DecodeStamp parses a payload prefix written by EncodeStamp.
func DecodeStamp(b []byte) (conn int, seq int64, gen uint32) {
	return int(binary.BigEndian.Uint32(b[0:4])),
		int64(binary.BigEndian.Uint32(b[4:8])),
		binary.BigEndian.Uint32(b[8:12])
}

// genConn is one connection's generator state.
type genConn struct {
	seq       int64
	gen       uint32
	remaining int32 // packets left in the current flow
}

// Generator produces the seeded arrival stream.
type Generator struct {
	cfg   Config
	conns []genConn
	rng   sim.Rand
	now   int64
}

// NewGenerator builds a generator over conns connections.
func NewGenerator(cfg Config, conns int) *Generator {
	g := &Generator{
		cfg:   cfg.WithDefaults(),
		conns: make([]genConn, conns),
		rng:   sim.NewRand(cfg.Seed ^ 0xA076_1D64_78BD_642F),
	}
	return g
}

// flowSize draws a bounded-Pareto flow length with the configured mean.
func (g *Generator) flowSize() int32 {
	const alpha = 1.3
	// x_m chosen so the unbounded Pareto mean equals MeanFlowPkts.
	xm := float64(g.cfg.MeanFlowPkts) * (alpha - 1) / alpha
	if xm < 1 {
		xm = 1
	}
	u := g.rng.Float64()
	if u > 0.99999 {
		u = 0.99999
	}
	size := xm * math.Pow(1-u, -1/alpha)
	if lim := min(100*float64(g.cfg.MeanFlowPkts), math.MaxInt32); size > lim {
		size = lim
	}
	if size < 1 {
		size = 1
	}
	return int32(size)
}

// Next returns the next arrival. The open-loop clock advances by an
// exponential gap regardless of how the stack is keeping up.
func (g *Generator) Next() Arrival {
	// Exponential inter-arrival gap around the configured mean.
	u := g.rng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	gap := int64(-float64(g.cfg.ArrivalGapNs) * math.Log(u))
	if gap < 1 {
		gap = 1
	}
	g.now += gap

	n := len(g.conns)
	var conn int
	if g.cfg.HotConnPct > 0 && g.rng.Intn(100) < g.cfg.HotConnPct {
		hot := g.cfg.HotConns
		if hot > n {
			hot = n
		}
		conn = g.rng.Intn(hot)
	} else {
		conn = g.rng.Intn(n)
	}
	c := &g.conns[conn]
	if g.cfg.MeanFlowPkts > 0 {
		if c.remaining <= 0 {
			// Churn: a fresh flow takes over the connection. The wire
			// ports stay fixed (sessions are opened once); only the
			// steering identity re-keys, like a new ephemeral port.
			if c.seq > 0 {
				c.gen++
			}
			c.remaining = g.flowSize()
		}
		c.remaining--
	}
	a := Arrival{At: g.now, Conn: conn, Seq: c.seq, Gen: c.gen}
	c.seq++
	return a
}

// connState is one connection's delivery-side state. In compact mode
// conn records which connection currently owns the slot.
type connState struct {
	maxSeq  int64
	conn    int32
	appProc int32
	since   int32 // deliveries since the last app migration
}

// Sink is the delivery-side receiver for steered runs: it parses the
// payload stamp, measures per-connection misordering and per-processor
// load, charges the cross-processor affinity penalty, and runs the
// application-thread migration that makes Flow-Director pins move.
type Sink struct {
	procs     int
	moveEvery int
	nconns    int // total connections (bounds-checks stamps)
	slots     int // 0: exact per-conn table; >0: direct-mapped compact table
	lock      sim.Mutex
	rng       sim.Rand

	conns     []connState
	perProc   []int64
	pkts      int64
	ooo       int64
	bytes     int64
	short     int64
	evictions int64

	// Pin, when set, is called after each delivery with the flow's
	// identity and the connection's (possibly just-migrated) consuming
	// processor — the Flow-Director update hook.
	Pin func(t *sim.Thread, conn int, gen uint32, proc int)

	// Tel, when non-nil, receives per-processor delivery counts and
	// per-flow sketch updates (telemetry). Publishing is nil-safe and
	// charges no virtual time.
	Tel *telemetry.Deliveries
}

// NewSink builds the sink for conns connections on procs processors.
// Each connection's application thread starts on conn mod procs. With
// cfg.CompactSlots set below conns, the per-connection table is
// direct-mapped at that size instead of exact (slot s starts owned by
// connection s, the lowest index mapping there).
func NewSink(cfg Config, conns, procs int) *Sink {
	cfg = cfg.WithDefaults()
	size := conns
	slots := 0
	if cfg.CompactSlots > 0 && cfg.CompactSlots < conns {
		size, slots = cfg.CompactSlots, cfg.CompactSlots
	}
	k := &Sink{
		procs:     procs,
		moveEvery: cfg.AppMoveEvery,
		nconns:    conns,
		slots:     slots,
		rng:       sim.NewRand(cfg.Seed ^ 0x9E37_79B9_7F4A_7C15),
		conns:     make([]connState, size),
		perProc:   make([]int64, procs+2),
	}
	k.lock.Name = "steer-sink"
	for i := range k.conns {
		k.conns[i].conn = int32(i)
		k.conns[i].appProc = int32(i % procs)
	}
	return k
}

// state returns connection conn's accounting entry. In compact mode a
// slot collision evicts the previous occupant: the newcomer takes the
// slot with a fresh watermark and its home processor as app affinity —
// deterministic, O(1), bounded.
func (k *Sink) state(conn int) *connState {
	if k.slots == 0 {
		return &k.conns[conn]
	}
	cs := &k.conns[conn%k.slots]
	if int(cs.conn) != conn {
		k.evictions++
		*cs = connState{conn: int32(conn), appProc: int32(conn % k.procs)}
	}
	return cs
}

// Receive consumes one delivered datagram — or, on batching runs, one
// GRO-merged frame of equal-length sub-segments, each carrying its own
// stamp. The merged case walks every sub-segment (so misordering is
// still detected per wire packet) under a single lock acquisition: the
// lock-amortization batching pays for.
func (k *Sink) Receive(t *sim.Thread, m *msg.Message) error {
	st := &t.Engine().C.Stack
	t.ChargeRand(st.AppRecv)
	b := m.Bytes()
	segs := m.SegCount()
	stride := len(b)
	if segs > 1 && len(b)%segs == 0 {
		stride = len(b) / segs
	} else {
		segs = 1
	}
	if stride < StampLen {
		k.short++
		m.Free(t)
		return nil
	}
	conn, _, gen := DecodeStamp(b)
	if conn < 0 || conn >= k.nconns {
		k.short++
		m.Free(t)
		return nil
	}
	// Application work for the extra coalesced segments (the head's is
	// charged above, identically to the unbatched path).
	for i := 1; i < segs; i++ {
		t.ChargeRand(st.AppRecv)
	}
	cs := k.state(conn)
	if int(cs.appProc) != t.Proc {
		// The consuming application's connection state lives in the
		// app processor's cache: a delivery elsewhere pays the remote-
		// line penalty. This is the cost flow steering exists to avoid.
		t.ChargeRand(st.MsgCold)
	}
	t.Interfere()
	k.lock.Acquire(t)
	for i := 0; i < segs; i++ {
		_, seq, _ := DecodeStamp(b[i*stride:])
		k.pkts++
		k.bytes += int64(stride)
		if p := t.Proc; p >= 0 && p < len(k.perProc) {
			k.perProc[p]++
		}
		if seq < cs.maxSeq {
			k.ooo++
		} else {
			cs.maxSeq = seq
		}
		if k.moveEvery > 0 {
			cs.since++
			if int(cs.since) >= k.moveEvery {
				cs.since = 0
				cs.appProc = int32(k.rng.Intn(k.procs))
			}
		}
	}
	appProc := int(cs.appProc)
	k.lock.Release(t)
	k.Tel.Note(t.Proc, uint64(conn)<<32|uint64(gen), int64(segs), int64(segs)*int64(stride))
	if k.Pin != nil {
		k.Pin(t, conn, gen, appProc)
	}
	if rec := t.Engine().Rec; rec != nil {
		rec.Deliver(t.Proc, t.Now(), m.Born)
	}
	m.Free(t)
	return nil
}

// Bytes returns payload bytes delivered so far.
func (k *Sink) Bytes() int64 { return k.bytes }

// Evictions returns how many compact-table slot collisions evicted a
// previous occupant (always 0 in exact mode).
func (k *Sink) Evictions() int64 { return k.evictions }

// Order returns (delivered packets, out-of-order packets).
func (k *Sink) Order() (int64, int64) { return k.pkts, k.ooo }

// PerProc returns a copy of the per-processor delivery counts (pump
// processors only).
func (k *Sink) PerProc() []int64 {
	out := make([]int64, k.procs)
	copy(out, k.perProc[:k.procs])
	return out
}
