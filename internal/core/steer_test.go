package core

import (
	"errors"
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/steer"
	"repro/internal/trace"
)

// steeredConfig is a small steered UDP-receive run: 4 processors, 64
// connections, mild skew and churn so every steering mechanism (flow
// table, eviction, rebalancing, app migration) gets exercised.
func steeredConfig(policy steer.Policy) Config {
	cfg := DefaultConfig()
	cfg.Side = SideRecv
	cfg.Procs = 4
	cfg.Connections = 64
	cfg.PacketSize = 1024
	cfg.Seed = 7
	cfg.Steer.Enabled = true
	cfg.Steer.Policy = policy
	cfg.Workload.ArrivalGapNs = 40_000
	cfg.Workload.HotConnPct = 50
	cfg.Workload.HotConns = 4
	cfg.Workload.MeanFlowPkts = 64
	cfg.Workload.AppMoveEvery = 128
	return cfg
}

func steerPolicies() []steer.Policy {
	return []steer.Policy{
		steer.PolicyPacket, steer.PolicyRSS,
		steer.PolicyFlowDirector, steer.PolicyRebalance,
	}
}

// TestSteeredRunSmoke: every policy moves traffic end to end through
// the real stack and reports the steering metrics.
func TestSteeredRunSmoke(t *testing.T) {
	for _, pol := range steerPolicies() {
		res := runOne(t, steeredConfig(pol))
		if res.Mbps < 10 {
			t.Errorf("%s: throughput = %.1f Mb/s, implausibly low", pol, res.Mbps)
		}
		if res.Packets == 0 {
			t.Errorf("%s: no packets counted", pol)
		}
	}
}

// TestSteeredRunDeterministic: identical configs give identical results,
// including every steering counter.
func TestSteeredRunDeterministic(t *testing.T) {
	for _, pol := range steerPolicies() {
		a := runOne(t, steeredConfig(pol))
		b := runOne(t, steeredConfig(pol))
		if a != b {
			t.Errorf("%s: runs diverged:\na: %+v\nb: %+v", pol, a, b)
		}
	}
}

// TestSteeredPolicyMechanisms checks that the mechanisms the policies
// exist to exhibit actually fire: the flow director pins and repins
// flows (migrations) and evicts from its bounded table; the rebalancer
// moves buckets.
func TestSteeredPolicyMechanisms(t *testing.T) {
	fdir := runOne(t, steeredConfig(steer.PolicyFlowDirector))
	if fdir.SteerMigrates == 0 {
		t.Error("flow-director: no repins despite app migration")
	}
	if fdir.FlowEvicts == 0 {
		t.Error("flow-director: no evictions despite 64 churning conns in a 128-entry table")
	}

	cfg := steeredConfig(steer.PolicyRebalance)
	cfg.Workload.HotConnPct = 90 // concentrate load so imbalance trips
	cfg.Steer.ImbalanceThresholdPct = 20
	reb := runOne(t, cfg)
	if reb.SteerMigrates == 0 {
		t.Error("rebalance: no bucket moves despite 90% hot traffic")
	}

	rss := runOne(t, steeredConfig(steer.PolicyRSS))
	if rss.SteerMigrates != 0 || rss.FlowEvicts != 0 {
		t.Errorf("rss: unexpected migrations (%d) or evictions (%d)",
			rss.SteerMigrates, rss.FlowEvicts)
	}
}

// TestSteeredTraceNeutrality extends the recorder guarantee to the
// steering hooks: recording steer-migrate and flow-evict events must
// not charge time or draw randomness.
func TestSteeredTraceNeutrality(t *testing.T) {
	for _, pol := range []steer.Policy{steer.PolicyFlowDirector, steer.PolicyRebalance} {
		cfg := steeredConfig(pol)
		cfg.Steer.ImbalanceThresholdPct = 20
		off := runOne(t, cfg)
		cfg.Trace = true
		stOn, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		on, err := stOn.Run(testWarmup, testMeasure)
		if err != nil {
			t.Fatal(err)
		}
		if off != on {
			t.Errorf("%s: tracing changed measurements:\noff: %+v\non:  %+v", pol, off, on)
		}
		var migrates int
		for p := 0; p < stOn.Rec.Procs(); p++ {
			for _, e := range stOn.Rec.Events(p) {
				if e.Kind == trace.EvSteerMigrate {
					migrates++
				}
			}
		}
		if migrates == 0 {
			t.Errorf("%s: traced run recorded no steer-migrate events", pol)
		}
	}
}

// TestSteerBucketLocksFollowLockKind: the Flow-Director bucket locks are
// of the run's LockKind whichever entry point built the config — the
// built stack reports MCS, and the fdir-bucket locks behave as MCS (a
// dearer acquire than the mutex's, so their statistics move).
func TestSteerBucketLocksFollowLockKind(t *testing.T) {
	run := func(kind sim.LockKind) (sim.LockKind, sim.LockStats) {
		cfg := steeredConfig(steer.PolicyFlowDirector)
		cfg.LockKind = kind
		st, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Run(testWarmup, testMeasure); err != nil {
			t.Fatal(err)
		}
		return st.Cfg.Steer.LockKind, st.steerer.LockStats()
	}
	mutexKind, mutex := run(sim.KindMutex)
	mcsKind, mcs := run(sim.KindMCS)
	if mutexKind != sim.KindMutex || mcsKind != sim.KindMCS {
		t.Errorf("fdir-bucket lock kinds = %v, %v; want %v, %v", mutexKind, mcsKind, sim.KindMutex, sim.KindMCS)
	}
	if mcs.Acquires == 0 || mcs.HoldNs <= mutex.HoldNs {
		t.Errorf("fdir-bucket locks under MCS held %d ns over %d acquires, under mutex %d ns: the buckets ignored LockKind",
			mcs.HoldNs, mcs.Acquires, mutex.HoldNs)
	}
}

// TestSteeredFailureEndsRun: a worker whose inject fails mid-run, with
// no fault wire to blame, ends the run with that error instead of a
// panic — the engine runs out of threads (none left blocked on a ring),
// teardown drains the rings, and every buffer allocated is back with
// the allocator, the dispatcher's pending GRO head included.
func TestSteeredFailureEndsRun(t *testing.T) {
	cfg := steeredConfig(steer.PolicyFlowDirector)
	cfg.Batch = msg.BatchConfig{Enabled: true, MaxSegs: 8}
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	up := &failAfter{Upper: st.FDDI, n: 1000}
	st.steerSrc.SetUpper(up)
	_, err = st.Run(testWarmup, testMeasure)
	if !errors.Is(err, errInjected) {
		t.Fatalf("Run returned %v, want the injected failure", err)
	}
	if calls := up.calls.Load(); calls <= up.n {
		t.Fatalf("only %d frames injected; the failure after %d never fired", calls, up.n)
	}
	if live := st.Eng.RunUntil(-1); live != 0 {
		t.Errorf("%d threads outlive the run", live)
	}
	for p, q := range st.steerQs {
		if q.Len() != 0 {
			t.Errorf("ring %d holds %d frames after teardown", p, q.Len())
		}
	}
	if s := st.Alloc.Stats(); s.Frees != s.CacheHits+s.CacheMisses {
		t.Errorf("%d buffers allocated, %d freed", s.CacheHits+s.CacheMisses, s.Frees)
	}
	if frames, _ := st.steerSrc.Produced(); frames > 2*up.n {
		t.Errorf("the NIC produced %d frames, well past the failure at inject %d: the stop flag did not stop it", frames, up.n)
	}
}
