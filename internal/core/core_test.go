package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

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
	xkernel.Upper
	n     int64
	calls atomic.Int64
}

var errInjected = errors.New("injected upper-layer failure")

func (f *failAfter) Demux(t *sim.Thread, m *msg.Message) error {
	if f.calls.Add(1) > f.n {
		m.Free(t)
		return errInjected
	}
	return f.Upper.Demux(t, m)
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
			up := &failAfter{Upper: st.FDDI, n: n}
			if row.proto == ProtoUDP {
				st.udpSrc.SetUpper(up)
			} else {
				st.tcpSend.SetUpper(up)
			}
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
			if !st.Eng.IsHost() {
				if live := st.Eng.RunUntil(-1); live != 0 {
					t.Errorf("%d threads outlive the run", live)
				}
			}
		})
	}
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

func TestMeasureSummarizes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 2
	r, last, err := Measure(cfg, testWarmup, testMeasure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Samples) != 3 || r.Mean <= 0 {
		t.Fatalf("bad summary: %+v", r)
	}
	if last.Mbps <= 0 {
		t.Fatal("no last-run result")
	}
}

func TestBuildValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 0
	if _, err := Build(cfg); err == nil {
		t.Error("Procs=0 accepted")
	}
	cfg = DefaultConfig()
	cfg.PacketSize = 100000
	if _, err := Build(cfg); err == nil {
		t.Error("oversized packet accepted")
	}
	cfg = DefaultConfig()
	cfg.Proto = ProtoTCP
	cfg.Side = SideRecv
	cfg.Ticketing = true
	cfg.Connections = 2
	cfg.Procs = 2
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(testWarmup, testMeasure); err == nil {
		t.Error("ticketing with multiple connections accepted")
	}
}
