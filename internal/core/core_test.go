package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fddi"
	"repro/internal/ip"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/xkernel"
)

const (
	testWarmup  = 300_000_000 // 0.3 s virtual
	testMeasure = 500_000_000 // 0.5 s virtual
)

func runOne(t *testing.T, cfg Config) RunResult {
	t.Helper()
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run(testWarmup, testMeasure)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// failAfter is an upper layer that rejects every frame after its nth
// (consuming it, as the real layers do), whichever threads bring them.
type failAfter struct {
	xkernel.Demuxer
	n     int64
	calls atomic.Int64
}

var errInjected = errors.New("injected upper-layer failure")

func (f *failAfter) Demux(t *sim.Thread, m *msg.Message) error {
	if f.calls.Add(1) > f.n {
		m.Free(t)
		return errInjected
	}
	return f.Demuxer.Demux(t, m)
}

// TestPumpFailureEndsRun: a pump whose inject fails mid-run, with no
// fault wire to blame, ends the run with that error instead of a panic,
// on either backend — on the host one both pumps fail at once, on real
// goroutines, and exactly one of their errors is the run's. Every pump
// stops at its first failure and the stop flag stops the rest. The
// connection-level workers and the layered pipeline's producer stage
// report the same way.
func TestPumpFailureEndsRun(t *testing.T) {
	const procs, n = 2, 200
	for _, row := range []struct {
		backend  sim.Backend
		proto    Proto
		strategy Strategy
		who      string // how the failing thread's report starts
	}{
		{sim.BackendSim, ProtoUDP, StrategyPacket, "core: pump "},
		{sim.BackendSim, ProtoTCP, StrategyPacket, "core: pump "},
		{sim.BackendHost, ProtoUDP, StrategyPacket, "core: pump "},
		{sim.BackendHost, ProtoTCP, StrategyPacket, "core: pump "},
		{sim.BackendSim, ProtoTCP, StrategyConnection, "core: connection-level inject: "},
		{sim.BackendSim, ProtoTCP, StrategyLayered, "core: layered inject: "},
	} {
		name := row.backend.String() + "-" + row.proto.String()
		if row.strategy != StrategyPacket {
			name += "-" + row.strategy.String()
		}
		t.Run(name, func(t *testing.T) {
			cfg := hostConfig(row.proto, SideRecv, sim.KindMutex, procs, 1)
			cfg.Backend = row.backend
			cfg.Strategy = row.strategy
			st, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			up := &failAfter{Demuxer: st.FDDI, n: n}
			st.sh.peer.SetUpper(up)
			warmup, measure := int64(testWarmup), int64(testMeasure)
			if st.Eng.IsHost() {
				warmup, measure = 5_000_000, 50_000_000 // wall-clock there: keep them short
			}
			_, err = st.Run(warmup, measure)
			if !errors.Is(err, errInjected) || !strings.HasPrefix(err.Error(), row.who) {
				t.Fatalf("Run returned %v, want %q reporting the injected failure", err, row.who)
			}
			if calls := up.calls.Load(); calls <= n || calls > n+procs {
				t.Errorf("%d frames injected: want the failure after %d to fire and each of %d threads to stop at its first", calls, n, procs)
			}
			st.Eng.Run() // no thread outlives the run: nothing left to resume, nothing blocked
		})
	}
}

// failingPump fails its first iteration with ok false, as a pump whose
// peer could not build a frame once did.
type failingPump struct{ calls atomic.Int64 }

func (p *failingPump) PumpBatch(*sim.Thread, int, *sim.Flag, msg.BatchConfig) (int, bool, error) {
	p.calls.Add(1)
	return 0, false, errInjected
}

// TestPumpErrorEndsRunWhateverOk: pump reads a pump step's error before
// its ok, so a failure that comes back beside "stopped" still ends the
// run with it instead of a silent 0 Mb/s.
func TestPumpErrorEndsRunWhateverOk(t *testing.T) {
	const procs = 2
	cfg := hostConfig(ProtoTCP, SideRecv, sim.KindMutex, procs, 1)
	cfg.Backend = sim.BackendSim
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &failingPump{}
	st.sh.pump = p
	_, err = st.Run(testWarmup, testMeasure)
	if !errors.Is(err, errInjected) || !strings.HasPrefix(err.Error(), "core: pump ") {
		t.Fatalf("Run returned %v, want the pump's failure", err)
	}
	if calls := p.calls.Load(); calls < 1 || calls > procs {
		t.Errorf("%d pump steps ran: want the first to fail and each of %d pumps to stop by its first", calls, procs)
	}
	st.Eng.Run() // no thread outlives the run: nothing left to resume, nothing blocked
}

func TestUDPSendSmoke(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 2
	res := runOne(t, cfg)
	if res.Mbps < 10 {
		t.Fatalf("UDP send throughput = %.1f Mb/s, implausibly low", res.Mbps)
	}
}

func TestUDPRecvSmoke(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Side = SideRecv
	cfg.Procs = 2
	res := runOne(t, cfg)
	if res.Mbps < 10 {
		t.Fatalf("UDP recv throughput = %.1f Mb/s", res.Mbps)
	}
}

func TestTCPSendSmoke(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Proto = ProtoTCP
	cfg.Procs = 2
	res := runOne(t, cfg)
	if res.Mbps < 10 {
		t.Fatalf("TCP send throughput = %.1f Mb/s", res.Mbps)
	}
}

func TestTCPRecvSmoke(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Proto = ProtoTCP
	cfg.Side = SideRecv
	cfg.Procs = 2
	res := runOne(t, cfg)
	if res.Mbps < 10 {
		t.Fatalf("TCP recv throughput = %.1f Mb/s", res.Mbps)
	}
	if res.Packets == 0 {
		t.Fatal("no packets counted")
	}
}

func TestUDPScalesWithProcessors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checksum = false
	one := runOne(t, cfg)
	cfg.Procs = 4
	four := runOne(t, cfg)
	if four.Mbps < 2.5*one.Mbps {
		t.Errorf("UDP send: 4 procs %.1f vs 1 proc %.1f — speedup %.2fx, want >= 2.5x",
			four.Mbps, one.Mbps, four.Mbps/one.Mbps)
	}
}

func TestTCPSingleConnectionDoesNotScale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Proto = ProtoTCP
	one := runOne(t, cfg)
	cfg.Procs = 6
	six := runOne(t, cfg)
	if six.Mbps > 3.5*one.Mbps {
		t.Errorf("TCP send scaled %.2fx on one connection; the state lock should prevent this",
			six.Mbps/one.Mbps)
	}
	if six.LockWaitFrac < 0.3 {
		t.Errorf("state-lock wait fraction = %.2f at 6 procs, want substantial", six.LockWaitFrac)
	}
}

func TestTCPRecvMisorderingGrowsWithContention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Proto = ProtoTCP
	cfg.Side = SideRecv
	cfg.LockKind = sim.KindMutex
	one := runOne(t, cfg)
	cfg.Procs = 6
	six := runOne(t, cfg)
	if one.OOOPct > 1 {
		t.Errorf("uniprocessor OOO = %.1f%%, want ~0", one.OOOPct)
	}
	if six.OOOPct < 5 {
		t.Errorf("6-proc mutex OOO = %.1f%%, want significant misordering", six.OOOPct)
	}
	// MCS locks must restore most of the order.
	cfg.LockKind = sim.KindMCS
	sixMCS := runOne(t, cfg)
	if sixMCS.OOOPct > six.OOOPct/1.5 {
		t.Errorf("MCS OOO %.1f%% not clearly below mutex OOO %.1f%%", sixMCS.OOOPct, six.OOOPct)
	}
}

func TestMultiConnectionScales(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Proto = ProtoTCP
	cfg.LockKind = sim.KindMCS
	one := runOne(t, cfg)
	cfg.Procs = 4
	cfg.Connections = 4
	four := runOne(t, cfg)
	if four.Mbps < 2.5*one.Mbps {
		t.Errorf("multi-connection TCP: 4 conns/procs %.1f vs 1 %.1f, speedup %.2fx",
			four.Mbps, one.Mbps, four.Mbps/one.Mbps)
	}
}

func TestTicketedAppStillCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Proto = ProtoTCP
	cfg.Side = SideRecv
	cfg.Ticketing = true
	cfg.Procs = 3
	res := runOne(t, cfg)
	if res.Mbps < 10 {
		t.Fatalf("ticketed recv throughput = %.1f Mb/s", res.Mbps)
	}
}

func TestLayoutsAllRun(t *testing.T) {
	for _, lay := range []tcp.Layout{tcp.Layout1, tcp.Layout2, tcp.Layout6} {
		cfg := DefaultConfig()
		cfg.Proto = ProtoTCP
		cfg.Side = SideRecv
		cfg.Layout = lay
		cfg.Procs = 2
		res := runOne(t, cfg)
		if res.Mbps < 5 {
			t.Errorf("%v recv throughput = %.1f Mb/s", lay, res.Mbps)
		}
	}
}

func TestUnwiredRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Wired = false
	cfg.Procs = 3
	res := runOne(t, cfg)
	if res.Mbps < 10 {
		t.Fatalf("unwired throughput = %.1f Mb/s", res.Mbps)
	}
}

func TestAssumeInOrderRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Proto = ProtoTCP
	cfg.Side = SideRecv
	cfg.AssumeInOrder = true
	cfg.Procs = 4
	res := runOne(t, cfg)
	if res.Mbps < 10 {
		t.Fatalf("assumed-in-order throughput = %.1f Mb/s", res.Mbps)
	}
}

// TestMeasureSummarizes: a repeated measurement — one run per derived
// seed, aggregated in run order — summarizes one sample per run beside a
// non-empty aggregate.
func TestMeasureSummarizes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 2
	cfgs := RunConfigs(cfg, 3)
	rrs := make([]RunResult, len(cfgs))
	for i, c := range cfgs {
		res, err := RunPoint(c, testWarmup, testMeasure)
		if err != nil {
			t.Fatal(err)
		}
		rrs[i] = res
	}
	r, agg := AggregateRuns(rrs)
	if len(r.Samples) != 3 || r.Mean <= 0 {
		t.Fatalf("bad summary: %+v", r)
	}
	if agg.Mbps <= 0 {
		t.Fatal("empty aggregate")
	}
}

func TestBuildValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 0
	if _, err := Build(cfg); err == nil {
		t.Error("Procs=0 accepted")
	}
	// The largest packet is what one FDDI frame carries under IP and
	// TCP headers; IP never fragments, so every shape runs it whole.
	largest := fddi.MTU - ip.HdrLen - tcp.HdrLen
	for _, proto := range []Proto{ProtoUDP, ProtoTCP} {
		for _, side := range []Side{SideSend, SideRecv} {
			cfg = DefaultConfig()
			cfg.Proto, cfg.Side = proto, side
			cfg.PacketSize = largest + 1
			if _, err := Build(cfg); err == nil {
				t.Errorf("%v %v: PacketSize %d accepted", proto, side, cfg.PacketSize)
			}
			cfg.PacketSize = largest
			st, err := Build(cfg)
			if err != nil {
				t.Fatalf("%v %v: PacketSize %d: %v", proto, side, largest, err)
			}
			res, err := st.Run(testWarmup, testMeasure)
			if err != nil {
				t.Fatalf("%v %v: PacketSize %d: %v", proto, side, largest, err)
			}
			if res.Mbps <= 0 || st.IP.Stats().FragsDropped != 0 {
				t.Errorf("%v %v: PacketSize %d: %.1f Mb/s, IP %+v", proto, side, largest, res.Mbps, st.IP.Stats())
			}
		}
	}
	// Ticketing orders one TCP connection's receive-side deliveries:
	// Build refuses it where Run could not run it or would ignore it.
	for _, c := range []struct {
		proto Proto
		side  Side
		conns int
	}{
		{ProtoTCP, SideRecv, 2},
		{ProtoTCP, SideSend, 1},
		{ProtoUDP, SideRecv, 1},
		{ProtoUDP, SideSend, 1},
	} {
		cfg = DefaultConfig()
		cfg.Proto, cfg.Side, cfg.Connections, cfg.Procs = c.proto, c.side, c.conns, 2
		cfg.Ticketing = true
		if _, err := Build(cfg); err == nil {
			t.Errorf("%v %v: ticketing over %d connections accepted", c.proto, c.side, c.conns)
		}
	}
}
