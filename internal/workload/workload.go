// Package workload generates many-connection heavy-traffic receive
// workloads for the steering experiments: a seeded open-loop arrival
// process over 64-4096 simulated connections with heavy-tailed flow
// sizes, connection churn and hot-connection skew (generalizing the
// stack's HotConnPct knob), and the payload stamp every simulated data
// frame carries to the application sink (internal/app).
//
// The generator is a pure function of its configuration and seed: the
// arrival stream never depends on service times or host scheduling, so
// steered runs stay bit-reproducible at any processor count.
package workload

import (
	"encoding/binary"
	"math"

	"repro/internal/sim"
)

// Config parameterizes the traffic generator and the steered sink
// (app.NewSteeredSink). Zero fields take the defaults noted below.
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
	Seq  int64  // per-connection sequence number (monotonic across churn, mod 2^32)
	Gen  uint32 // connection generation (bumps on churn)
}

// StampLen is the self-describing payload prefix: connection, sequence
// (a TCP segment's index) and generation, written by the driver into
// every data segment and parsed by the application sink, so delivery is
// checked end to end without plumbing metadata through the protocol
// layers.
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

// genConn is one connection's generator state: 12 bytes, one per
// connection. seq is 32 bits, as EncodeStamp puts it on the wire.
type genConn struct {
	seq       uint32
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
	a := Arrival{At: g.now, Conn: conn, Seq: int64(c.seq), Gen: c.gen}
	c.seq++
	return a
}
