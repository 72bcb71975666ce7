package core

import (
	"strings"
	"testing"

	"repro/internal/msg"
	"repro/internal/steer"
	"repro/internal/trace"
)

// batchTCPRecv is the batching regime of interest: several processors
// contending on one connection's state lock.
func batchTCPRecv(maxSegs int) Config {
	cfg := DefaultConfig()
	cfg.Proto = ProtoTCP
	cfg.Side = SideRecv
	cfg.Procs = 4
	cfg.PacketSize = 1024
	if maxSegs > 0 {
		cfg.Batch = msg.BatchConfig{Enabled: true, MaxSegs: maxSegs}
	}
	return cfg
}

// TestBatchDisabledIdentity pins what Build normalizes: enabled with
// MaxSegs 1, and disabled with the other fields set, both run exactly as
// the zero config does and report no batching (a batch of one is not a
// batch). All three take the same pumps, so that those pumps are the
// pre-batching stack is pinned elsewhere: by the committed goldens (TCP
// receive) and by experiments.TestCatalogueDigest, whose constants
// predate the single pump (the UDP pump, the steered NIC loop).
func TestBatchDisabledIdentity(t *testing.T) {
	shapes := map[string]Config{
		"tcp-recv": batchTCPRecv(0),
		"udp-recv": func() Config {
			cfg := DefaultConfig()
			cfg.Side = SideRecv
			cfg.Procs = 3
			return cfg
		}(),
		"steered": steeredConfig(steer.PolicyRSS),
	}
	for name, base := range shapes {
		off := runOne(t, base)

		one := base
		one.Batch = msg.BatchConfig{Enabled: true, MaxSegs: 1}
		if got := runOne(t, one); got != off {
			t.Errorf("%s: MaxSegs=1 differs from disabled:\noff: %+v\ngot: %+v", name, off, got)
		}
		one.Trace = true
		st, err := Build(one)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Run(testWarmup, testMeasure); err != nil {
			t.Fatal(err)
		}
		merges, flushes := batchEvents(st)
		if off.BatchFrames != 0 || off.BatchSegs != 0 || merges+flushes != 0 || strings.Contains(st.ProfileReport(), "Batching") {
			t.Errorf("%s: a batch of one reports batching: %d frames, %d segments, %d merge and %d flush events",
				name, off.BatchFrames, off.BatchSegs, merges, flushes)
		}

		disabled := base
		disabled.Batch = msg.BatchConfig{Enabled: false, MaxSegs: 8}
		if got := runOne(t, disabled); got != off {
			t.Errorf("%s: Enabled=false with MaxSegs set differs from zero config:\noff: %+v\ngot: %+v",
				name, off, got)
		}
	}
}

// TestBatchAmortizesStateLock is the enforcing claim of the subsystem:
// with batching, the TCP connection-state lock is acquired once per
// merged frame, so both the acquisition count and the lock-wait share
// of processor time must fall against the per-packet baseline while
// delivered bytes hold up.
func TestBatchAmortizesStateLock(t *testing.T) {
	runStack := func(maxSegs int) (*Stack, RunResult) {
		st, err := Build(batchTCPRecv(maxSegs))
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Run(testWarmup, testMeasure)
		if err != nil {
			t.Fatal(err)
		}
		return st, res
	}
	stOff, off := runStack(0)
	stOn, on := runStack(8)

	if on.BatchSegsPerFrame < 1.5 {
		t.Fatalf("merge factor = %.2f segs/frame, batching barely coalesced", on.BatchSegsPerFrame)
	}
	// The batched run moves more data, so compare lock acquisitions per
	// delivered byte: one acquisition covers the whole merged frame.
	offPerByte := float64(stOff.sh.tcbs[0].StateLockStats().Acquires) / float64(stOff.Sink.Bytes())
	onPerByte := float64(stOn.sh.tcbs[0].StateLockStats().Acquires) / float64(stOn.Sink.Bytes())
	if onPerByte >= 0.7*offPerByte {
		t.Errorf("state-lock acquires per delivered byte %.2e (batched) vs %.2e (per-packet): batching did not amortize",
			onPerByte, offPerByte)
	}
	offSegPerByte := float64(stOff.TCP.Stats().SegsIn) / float64(stOff.Sink.Bytes())
	onSegPerByte := float64(stOn.TCP.Stats().SegsIn) / float64(stOn.Sink.Bytes())
	if onSegPerByte >= offSegPerByte {
		t.Errorf("TCP segments per delivered byte %.2e (batched) vs %.2e: merged frames should reach TCP as fewer segments",
			onSegPerByte, offSegPerByte)
	}
	if on.LockWaitFrac >= off.LockWaitFrac {
		t.Errorf("lock-wait share %.3f (batched) vs %.3f (per-packet): should fall with batch size",
			on.LockWaitFrac, off.LockWaitFrac)
	}
	if on.Mbps < off.Mbps {
		t.Errorf("throughput %.1f (batched) < %.1f (per-packet)", on.Mbps, off.Mbps)
	}
	// Delivered application bytes must not be lost to merging: the sink
	// sees every wire segment's payload either way.
	if sb := stOn.Sink.Bytes(); sb < stOff.Sink.Bytes()/2 {
		t.Errorf("batched sink bytes %d implausibly low vs %d", sb, stOff.Sink.Bytes())
	}
}

// TestBatchLockWaitFallsWithSize sweeps the batch ladder at a fixed
// processor count: the lock-wait share must decrease monotonically-ish
// (each step no worse than 1.05x the previous) as the batch grows.
func TestBatchLockWaitFallsWithSize(t *testing.T) {
	prev := -1.0
	for _, segs := range []int{1, 4, 8} {
		res := runOne(t, batchTCPRecv(segs))
		if prev >= 0 && res.LockWaitFrac > prev*1.05 {
			t.Errorf("lock-wait share rose from %.3f to %.3f at batch %d", prev, res.LockWaitFrac, segs)
		}
		prev = res.LockWaitFrac
	}
}

// TestBatchFaultWire drives merged segments through the lossy wire:
// drops force retransmissions, duplication forces trimming, reordering
// exercises the reassembly queue — all against frames that carry
// several coalesced wire segments. The run must stay deterministic and
// still deliver.
func TestBatchFaultWire(t *testing.T) {
	cfg := batchTCPRecv(8)
	cfg.Faults.Up.Drop = 0.01
	cfg.Faults.Up.Dup = 0.01
	cfg.Faults.Up.Reorder = 0.02
	a := runOne(t, cfg)
	if a.Mbps < 5 {
		t.Fatalf("lossy batched throughput = %.1f Mb/s, implausibly low", a.Mbps)
	}
	if a.BatchSegsPerFrame < 1.2 {
		t.Errorf("merge factor %.2f under faults: coalescing collapsed", a.BatchSegsPerFrame)
	}
	if b := runOne(t, cfg); a != b {
		t.Errorf("lossy batched runs diverged:\na: %+v\nb: %+v", a, b)
	}

	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(testWarmup, testMeasure); err != nil {
		t.Fatal(err)
	}
	ts := st.TCP.Stats()
	if ts.OOOSegsIn == 0 {
		t.Error("reordering faults produced no out-of-order segments at TCP")
	}
	if ts.Delivered == 0 {
		t.Error("nothing delivered through the lossy batched wire")
	}
}

// TestLossDeliveredMatchesSink is the accounting-order regression
// (ext-loss): TCP's Delivered counter increments only after the sink
// accepts the segment, so under fault injection the two can never
// drift. A merged frame counts once at TCP and SegCount times at the
// sink, so the strict equality is checked with batching off.
func TestLossDeliveredMatchesSink(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Proto = ProtoTCP
	cfg.Side = SideRecv
	cfg.Procs = 4
	cfg.PacketSize = 1024
	cfg.Faults.Up.Drop = 0.02
	cfg.Faults.Up.Dup = 0.01
	cfg.Faults.Up.Corrupt = 0.01
	cfg.Faults.Up.Reorder = 0.02
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(testWarmup, testMeasure); err != nil {
		t.Fatal(err)
	}
	delivered := st.TCP.Stats().Delivered
	if delivered == 0 {
		t.Fatal("nothing delivered under faults")
	}
	if got := st.Sink.Packets(); got != delivered {
		t.Errorf("TCP Delivered = %d but sink received %d: accounting drifted", delivered, got)
	}
	if st.TCP.Stats().ChecksumBad == 0 {
		t.Error("corruption faults produced no bad checksums — the regression regime never engaged")
	}
}

// batchEvents counts the batching events a traced run recorded.
func batchEvents(st *Stack) (merges, flushes int) {
	for p := 0; p < st.Rec.Procs(); p++ {
		for _, e := range st.Rec.Events(p) {
			switch e.Kind {
			case trace.EvBatchMerge:
				merges++
			case trace.EvBatchFlush:
				flushes++
			}
		}
	}
	return merges, flushes
}

// TestBatchSteeredCoalesces: the steering dispatcher's coalescer merges
// hot-flow runs before the steering decision, stays deterministic, and
// emits the batch trace events without perturbing the measurements.
func TestBatchSteeredCoalesces(t *testing.T) {
	cfg := steeredConfig(steer.PolicyRSS)
	cfg.Workload.HotConnPct = 90 // long same-flow runs for the coalescer
	cfg.Workload.HotConns = 1
	cfg.Batch = msg.BatchConfig{Enabled: true, MaxSegs: 8}
	off := runOne(t, cfg)
	if off.BatchFrames == 0 || off.BatchSegsPerFrame < 1.2 {
		t.Fatalf("steered coalescer idle: %d frames, %.2f segs/frame",
			off.BatchFrames, off.BatchSegsPerFrame)
	}
	if again := runOne(t, cfg); again != off {
		t.Errorf("steered batched runs diverged:\na: %+v\nb: %+v", off, again)
	}

	cfg.Trace = true
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	on, err := st.Run(testWarmup, testMeasure)
	if err != nil {
		t.Fatal(err)
	}
	if on != off {
		t.Errorf("tracing changed batched measurements:\noff: %+v\non:  %+v", off, on)
	}
	merges, flushes := batchEvents(st)
	if merges == 0 || flushes == 0 {
		t.Errorf("traced batched run recorded %d merges, %d flushes; want both > 0", merges, flushes)
	}
}

// TestMeasureRepeatIndependence (steered, two repeats): every repeat
// owns a fresh stack and steerer, and the warm-up snapshot resets the
// peak-imbalance watermark, so repeat r of a two-repeat Measure must be
// bit-identical to running repeat r's derived config alone — no peak
// watermark or steering state may bleed across repeats.
func TestMeasureRepeatIndependence(t *testing.T) {
	cfg := steeredConfig(steer.PolicyRebalance)
	cfg.Steer.ImbalanceThresholdPct = 20
	cfgs := RunConfigs(cfg, 2)
	var paired [2]RunResult
	for r, c := range cfgs {
		res, err := RunPoint(c, testWarmup, testMeasure)
		if err != nil {
			t.Fatal(err)
		}
		paired[r] = res
	}
	// The second repeat, run standalone, must match the second repeat
	// of the pair exactly — including PeakQueuePct.
	alone, err := RunPoint(cfgs[1], testWarmup, testMeasure)
	if err != nil {
		t.Fatal(err)
	}
	if alone != paired[1] {
		t.Errorf("second repeat depends on the first:\npaired: %+v\nalone:  %+v", paired[1], alone)
	}
	if paired[0] == paired[1] {
		t.Error("distinct repeat seeds produced identical results; seeding is broken")
	}
	if paired[0].PeakQueuePct <= 0 || paired[1].PeakQueuePct <= 0 {
		t.Errorf("repeats did not record their own peak imbalance: %+v, %+v",
			paired[0].PeakQueuePct, paired[1].PeakQueuePct)
	}
}
