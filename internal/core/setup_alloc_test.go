package core

import (
	"runtime"
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/steer"
)

// setupCost is what bench/ reports as core.setup_allocs_per_conn and
// core.setup_bytes_per_conn before dividing: heap allocations and bytes
// of Build plus a set-up-only Run. The least of five passes, since the
// runtime's own background allocations land in a pass now and then.
func setupCost(t *testing.T, cfg Config) (mallocs, bytes uint64) {
	t.Helper()
	mallocs, bytes = ^uint64(0), ^uint64(0)
	for i := 0; i < 5; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Run(1, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		mallocs, bytes = min(mallocs, m1.Mallocs-m0.Mallocs), min(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	return mallocs, bytes
}

// TestSetupAllocsPerConn: sessions come from slabs and demux entries
// from chunks, so a connection adds next to no allocations (four each
// when every session and entry was its own heap object), while a
// one-connection stack, whose slabs and chunks hold one element, costs
// no more than it did then.
func TestSetupAllocsPerConn(t *testing.T) {
	// The shape of bench's steer-1m-skew-8p, at a size a test can afford.
	steered := steeredConfig(steer.PolicyFlowDirector)
	steered.Workload.CompactSlots = 8192 // as there: the sink's per-connection records are bounded
	const conns = 10_000
	steered.Connections = 1
	fixed, _ := setupCost(t, steered)
	steered.Connections = conns
	all, _ := setupCost(t, steered)
	if perConn := (float64(all) - float64(fixed)) / (conns - 1); perConn > 0.05 {
		t.Errorf("steered UDP set-up: %.3f mallocs per connection (%d at %d connections, %d at one), want at most 0.05",
			perConn, all, conns, fixed)
	}

	// Measured on the tree before slabs (PR 16, go1.24): a change that
	// has to raise these has made every small run's set-up dearer. (One
	// has: TCP's ceiling was 622 and 123400 before the tick wheel, whose
	// slot heads every TCP stack now carries, became the only timer; it
	// reads 623 and 125088, 125296 under the race detector. And another:
	// IP, the transport and the three demux maps — fddi, ip, udp or tcp —
	// each keep their statistics inline in a sim.Shards, a line of
	// padding and 16 slots of the Stats struct plus a line each: 2112 B
	// for ip's 8 counters, 1600 B for udp's and each map's 4, 2880 B for
	// tcp's 14, where the one Stats was 64, 32 and 112 B. No allocation
	// is added, but the structs move up the allocator's size classes:
	// udp reads 609 and 130456 (120936 before, 130664 and 121144 under
	// the race detector), 9520 B more; tcp 623 and 135664 (125088
	// before), 10576 B more. The byte ceilings below moved by exactly
	// that: 121448+9520, 125296+10576.)
	udp := DefaultConfig()
	udp.Side = SideRecv
	tcp := udp
	tcp.Proto = ProtoTCP
	for _, c := range []struct {
		name                 string
		cfg                  Config
		maxMallocs, maxBytes uint64
	}{
		{"udp", udp, 612, 130968},
		{"tcp", tcp, 623, 135872},
	} {
		if m, b := setupCost(t, c.cfg); m > c.maxMallocs || b > c.maxBytes {
			t.Errorf("one-connection %s set-up: %d mallocs, %d bytes; want at most %d and %d",
				c.name, m, b, c.maxMallocs, c.maxBytes)
		}
	}
}

// TestSetupBytesPerConn: what bench/ reports as setup_heap_mb on
// steer-1m-skew-8p, per connection and at a size a test can afford —
// the live heap a built, set-up stack holds after a collection. A
// connection is one udp session (72 B) and one demux entry and bucket
// (40 + 8 B) over the IP and FDDI sessions every connection to one peer
// shares, plus the generator's 16 B: 266 B here (258 B at a million)
// when each had a private pair of lower sessions and a slot in
// Stack.udpSess, which only the send side's pump reads.
func TestSetupBytesPerConn(t *testing.T) {
	live := func(conns int) (st *Stack, heap int64) {
		cfg := steeredConfig(steer.PolicyFlowDirector)
		cfg.Workload.CompactSlots = 8192
		cfg.Connections = conns
		heap = 1 << 62
		for i := 0; i < 3; i++ { // the least of three: the runtime's own allocations land in a pass now and then
			var m0, m1 runtime.MemStats
			st = nil
			runtime.GC()
			runtime.ReadMemStats(&m0)
			var err error
			if st, err = Build(cfg); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Run(1, 1); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&m1)
			heap = min(heap, int64(m1.HeapAlloc)-int64(m0.HeapAlloc))
		}
		return st, heap
	}
	// Slab and chunk round-up is a quarter of the figure at 10 000
	// connections (191 B); by 100 000 it is within 5 % of the million's
	// 137 B.
	const conns = 100_000
	_, fixed := live(1)
	st, all := live(conns)
	if perConn := float64(all-fixed) / (conns - 1); perConn > 145 {
		t.Errorf("steered UDP set-up keeps %.1f bytes live per connection (%d at %d connections, %d at one), want at most 145",
			perConn, all, conns, fixed)
	}
	if st.udpSess != nil {
		t.Errorf("a receive-side stack keeps %d UDP sessions for a send pump it does not have", len(st.udpSess))
	}
}

// TestSteeredRunAllocsPerPkt: the steered path allocates on one
// processor (the NIC thread) and frees on another (a worker), the shape
// per-processor free lists alone cannot recycle; a message view that
// travels with its buffer can. bench/ reports this as host_allocs_per_pkt
// on steer-1m-skew-8p (1.02 before views travelled, against a 0.05
// floor); here the same shape at 10k connections, counted over a second
// interval once the first has primed the caches.
func TestSteeredRunAllocsPerPkt(t *testing.T) {
	cfg := steeredConfig(steer.PolicyFlowDirector)
	cfg.Connections = 10_000
	cfg.Workload.CompactSlots = 8192
	cfg.Batch = msg.BatchConfig{Enabled: true, MaxSegs: 8}
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const interval = 1_000_000_000 // 1 s virtual, 25k arrivals, 20k delivered
	var m0, m1 runtime.MemStats
	var pkts int64
	st.Eng.Spawn("alloc-probe", cfg.Procs+1, func(th *sim.Thread) {
		th.Sleep(interval)
		runtime.ReadMemStats(&m0)
		b0 := st.Bytes()
		th.Sleep(interval)
		runtime.ReadMemStats(&m1)
		pkts = (st.Bytes() - b0) / int64(cfg.PacketSize)
	})
	if _, err := st.Run(interval, interval+1_000_000); err != nil {
		t.Fatal(err)
	}
	if pkts < 10_000 {
		t.Fatalf("only %d packets delivered in the measured interval", pkts)
	}
	if perPkt := float64(m1.Mallocs-m0.Mallocs) / float64(pkts); perPkt > 0.06 {
		t.Errorf("steered run: %.3f mallocs per delivered packet (%d over %d), want at most 0.06",
			perPkt, m1.Mallocs-m0.Mallocs, pkts)
	}
}
