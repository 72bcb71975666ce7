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

// TestSetupAllocsPerConn: sessions come from slabs and chain themselves
// in the demux table, so a connection adds next to no allocations (four
// each when every session and demux entry was its own heap object),
// while a one-connection stack, whose slabs hold one element, costs no
// more than it did then.
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
	// that: 121448+9520, 125296+10576. They moved down when the three
	// lock types became one sim.Lock, held by value where an interface
	// and a separate object were: udp reads 606 and 117960 (118168 under
	// the race detector), 3 mallocs and 12496 B fewer; tcp 620 and 122992
	// (123200), 3 and 12672 fewer. And again when the event wheel's 512
	// chain locks became one array, where each was its own heap object
	// behind a pointer in its chain: udp reads 94 and 111768 (111976
	// under the race detector), tcp 108 and 116768 (116976), 511 mallocs
	// and 4592 B fewer each. And when RefCount packed its mode and pool
	// index into one word (16 B to 12) and udp.Session reordered its
	// fields into one 64 B line (72 B before): udp reads 94 and 111752
	// (111960), 16 B fewer for its one session's size class; tcp's TCB
	// keeps its 824 B, since its count sits before an 8-aligned field.
	// And when Build came to choose the workload once: a receive stack
	// builds no send-side app.Source and its 4 KB payload, and the UDP
	// source keeps one frame template, not a list of them: udp reads 91
	// and 107600 (107808 under the race detector), tcp 107 and 112640
	// (112848). The ceilings are now those readings. And when a udp
	// session became 24 B over one shared binding and a demux entry 32 B:
	// udp reads 91 and 107512 (107720 under the race detector), tcp 107
	// and 112592 (112800). And when the event wheel came to build its
	// chain locks 64 at a time on first use, and a set-up run to adopt
	// the coroutines an earlier engine parked: udp reads 53 and 41832
	// (41848 under the race detector), tcp 69 and 46912 (46928), 38
	// mallocs and 65680 B fewer, 64512 B of them the 448 chain locks a
	// short run never touches. And when a demux table came to hold its
	// values by type (a udp entry 24 B, not 32) and fddi.Protocol lost
	// the reference count nothing read: udp reads 53 and 41808 (41824
	// under the race detector), tcp 69 and 46888 (46904), 24 B fewer
	// each. And when the event manager became one list under one lock
	// held inline: udp reads 49 and 27424, tcp 65 and 32504, under the
	// race detector too, 4 mallocs and 14384 B fewer each, the 512-slot
	// array of chains and the first chunk of chain locks most of it.
	// And when the demux tables came to chain their values themselves,
	// in buckets of a pointer and a tag byte where a bucket was a 4 B
	// index: udp reads 48 and 27984, tcp 64 and 33056, under the race
	// detector too, one malloc fewer each (the transport table's entry
	// chunk) and 560 and 552 B more. The bucket arrays are 544 B of it:
	// the transport's 64 buckets are 8 groups of 72 B, 576 B and the 8 B
	// header a pointerful object above 512 B carries, in a 640 B class
	// where they took 256 B (+384), and ip's and fddi's 16 are 144 B
	// where they took 64 (+80 each). ip's and fddi's one binding is a
	// 40 B node in a 48 B class where it was a 32 B one-entry chunk
	// (+32), the transport's 24 B one-entry chunk is gone (-24), and
	// udp's session is 32 B where it was 24 (+8; the TCB keeps its 896 B
	// class). Each mode has its own byte ceiling, at its own reading
	// (setup_ceiling_test.go, setup_ceiling_race_test.go):
	// one ceiling at the race detector's reading let a struct climb a
	// size class under plain go test unnoticed.)
	udp := DefaultConfig()
	udp.Side = SideRecv
	tcp := udp
	tcp.Proto = ProtoTCP
	for _, c := range []struct {
		name                 string
		cfg                  Config
		maxMallocs, maxBytes uint64
	}{
		{"udp", udp, 48, udpSetupMaxBytes},
		{"tcp", tcp, 64, tcpSetupMaxBytes},
	} {
		m, b := setupCost(t, c.cfg)
		t.Logf("one-connection %s set-up: %d mallocs, %d bytes", c.name, m, b)
		if m > c.maxMallocs || b > c.maxBytes {
			t.Errorf("one-connection %s set-up: %d mallocs, %d bytes; want at most %d and %d",
				c.name, m, b, c.maxMallocs, c.maxBytes)
		}
	}
}

// TestSetupBytesPerConn: what bench/ reports as setup_heap_mb on
// steer-1m-skew-8p, per connection and at a size a test can afford —
// the live heap a built, set-up stack holds after a collection. A
// connection is one udp session, which chains itself in the demux
// table, one bucket (a pointer and a tag byte) and one generator slot,
// 32 + 9 + 12 = 53 B, over
// one binding and the IP and FDDI sessions every connection to one peer
// shares: 266 B here (258 B at a million) when each had a private pair
// of lower sessions and a slot in the list of sessions only the send
// side's pump reads, 131.5 B when each session held its own copy of the
// binding's three words and each entry a 16 B key, 81.9 B when a demux
// entry held its value as an any (32 B), 73.7 B when it held a pointer
// to the session and a copy of its key (24 B) and the table two 4 B
// buckets per connection.
func TestSetupBytesPerConn(t *testing.T) {
	cfg := steeredConfig(steer.PolicyFlowDirector)
	cfg.Workload.CompactSlots = 8192
	// Slab and bucket round-up is a large share of the figure at 10 000
	// connections; by 100 000 (131 072 buckets) it is about 10 % above
	// the million's 53 B.
	const conns = 100_000
	cfg.Connections = 1
	_, fixed := setupLive(t, cfg)
	cfg.Connections = conns
	st, all := setupLive(t, cfg)
	perConn := float64(all-fixed) / (conns - 1)
	t.Logf("%.1f bytes live per connection (%d at %d connections, %d at one)", perConn, all, conns, fixed)
	if perConn > 59 {
		t.Errorf("steered UDP set-up keeps %.1f bytes live per connection, want at most 59", perConn)
	}
	if send, ok := st.sh.pump.(*sendPump); ok {
		t.Errorf("a receive-side stack keeps %d UDP sessions for a send pump it does not have", len(send.conns))
	}
}

// setupLive returns a built, set-up stack and the live heap it holds
// after a collection: the least of three passes, since the runtime's
// own allocations land in a pass now and then. Both readings follow
// quiesce, so what earlier tests left behind does not move them.
func setupLive(t *testing.T, cfg Config) (st *Stack, heap int64) {
	t.Helper()
	heap = 1 << 62
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		st = nil
		quiesce()
		runtime.ReadMemStats(&m0)
		var err error
		if st, err = Build(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Run(1, 1); err != nil {
			t.Fatal(err)
		}
		quiesce()
		runtime.ReadMemStats(&m1)
		heap = min(heap, int64(m1.HeapAlloc)-int64(m0.HeapAlloc))
	}
	return st, heap
}

// quiesce collects twice: after an earlier test one collection leaves
// tens of KB that the next one frees, and a pass that starts after one
// counts them freed in its own reading.
func quiesce() {
	runtime.GC()
	runtime.GC()
}

// TestSetupTCPCostPerConn: the twin of the two UDP tests above for
// TCP's receive shape, at 1 and at 1,024 connections. A connection is
// three heap objects: the TCB (unsafe.Sizeof 840 B with its demux link,
// an 896 B class), its lock set (Layout1: one 144 B sim.Lock) and the
// simulated peer's 48 B connection record. With its 9 B demux bucket
// and a pointer each in the stack's and the peer's tables, that is 1113
// B, and 1117.9 B are live. The peer's data frame is one 4156 B
// template for all connections, each copy patched with its connection's
// ports (a template per connection made it 4.03 mallocs and 6090 B; a
// 40 B demux entry beside the TCB 1193.2 B, a 32 B one 1149.0, a 24 B
// one 1143.6). The ceilings are those readings rounded up: the baseline
// slabbing TCBs lowers.
func TestSetupTCPCostPerConn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Side = SideRecv
	cfg.Proto = ProtoTCP
	const conns = 1024
	cfg.Connections = 1
	fixedM, _ := setupCost(t, cfg)
	_, fixedB := setupLive(t, cfg)
	cfg.Connections = conns
	allM, _ := setupCost(t, cfg)
	_, allB := setupLive(t, cfg)
	mallocs := (float64(allM) - float64(fixedM)) / (conns - 1)
	bytes := float64(allB-fixedB) / (conns - 1)
	t.Logf("%.2f mallocs and %.1f bytes live per connection (%d and %d at %d connections, %d and %d at one)",
		mallocs, bytes, allM, allB, conns, fixedM, fixedB)
	if mallocs > 3.03 || bytes > 1119 {
		t.Errorf("TCP receive set-up: %.2f mallocs and %.1f bytes live per connection, want at most 3.03 and 1119",
			mallocs, bytes)
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
