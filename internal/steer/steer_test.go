package steer

import (
	"bytes"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// run spawns fn on a fresh deterministic engine and drives it to
// completion.
func run(t *testing.T, seed uint64, fn func(th *sim.Thread)) {
	t.Helper()
	e := sim.New(cost.NewModel(cost.Challenge100), seed)
	e.Spawn("test", 0, fn)
	e.Run()
}

// randTuple draws a pseudo-random 4-tuple from rng.
func randTuple(rng *sim.Rand) Tuple {
	var tu Tuple
	a, b := rng.Uint64(), rng.Uint64()
	for i := 0; i < 4; i++ {
		tu.SrcIP[i] = byte(a >> (8 * i))
		tu.DstIP[i] = byte(a >> (32 + 8*i))
	}
	tu.SrcPort = uint16(b)
	tu.DstPort = uint16(b >> 16)
	return tu
}

// decisionStream runs n seeded random tuples through a fresh RSS
// Steerer and returns the decision sequence as bytes.
func decisionStream(t *testing.T, seed uint64, procs, n int) []byte {
	var out []byte
	run(t, 1, func(th *sim.Thread) {
		s := New(Config{Enabled: true, Policy: PolicyRSS}, procs)
		rng := sim.NewRand(seed)
		for i := 0; i < n; i++ {
			tu := randTuple(&rng)
			out = append(out, byte(s.Decide(th, uint64(i), s.Hash(tu))))
		}
	})
	return out
}

// TestRSSDeterministic is the steering determinism property: for any
// seed, the same packet sequence yields byte-identical steering
// decisions no matter how the work is spread across workers. RSS is
// stateless per packet, so a sharded run — each worker steering its
// slice with its own Steerer — must reproduce the serial decisions
// exactly.
func TestRSSDeterministic(t *testing.T) {
	const n = 2048
	for _, seed := range []uint64{1, 42, 1994} {
		for _, procs := range []int{2, 4, 8} {
			serial := decisionStream(t, seed, procs, n)
			if again := decisionStream(t, seed, procs, n); !bytes.Equal(serial, again) {
				t.Fatalf("seed %d procs %d: repeated run diverged", seed, procs)
			}
			// Shard the same tuple sequence across worker counts: every
			// worker owns an interleaved slice and steers it with its
			// own Steerer instance.
			for _, workers := range []int{1, 2, 3, 8} {
				sharded := make([]byte, n)
				for w := 0; w < workers; w++ {
					w := w
					run(t, 1, func(th *sim.Thread) {
						s := New(Config{Enabled: true, Policy: PolicyRSS}, procs)
						rng := sim.NewRand(seed)
						for i := 0; i < n; i++ {
							tu := randTuple(&rng)
							d := byte(s.Decide(th, uint64(i), s.Hash(tu)))
							if i%workers == w {
								sharded[i] = d
							}
						}
					})
				}
				if !bytes.Equal(serial, sharded) {
					t.Fatalf("seed %d procs %d workers %d: sharded decisions diverged", seed, procs, workers)
				}
			}
		}
	}
}

// TestToeplitzChiSquared checks the balance property: the Toeplitz
// hash through the default indirection table spreads random 4-tuples
// within 15% of uniform across P ∈ {2,4,8} processors, and the
// chi-squared statistic stays below the 0.1% critical value.
func TestToeplitzChiSquared(t *testing.T) {
	const n = 1 << 16
	// chi-squared critical values at alpha=0.001 for P-1 degrees of
	// freedom.
	crit := map[int]float64{2: 10.83, 4: 16.27, 8: 24.32}
	for _, procs := range []int{2, 4, 8} {
		run(t, 1, func(th *sim.Thread) {
			s := New(Config{Enabled: true, Policy: PolicyRSS}, procs)
			rng := sim.NewRand(7)
			counts := make([]int64, procs)
			for i := 0; i < n; i++ {
				counts[s.Decide(th, uint64(i), s.Hash(randTuple(&rng)))]++
			}
			exp := float64(n) / float64(procs)
			var chi2 float64
			for p, c := range counts {
				dev := float64(c) - exp
				if d := dev / exp; d > 0.15 || d < -0.15 {
					t.Errorf("procs %d: processor %d got %d of %d (%.1f%% off uniform)",
						procs, p, c, n, 100*d)
				}
				chi2 += dev * dev / exp
			}
			if chi2 > crit[procs] {
				t.Errorf("procs %d: chi-squared %.2f exceeds %.2f", procs, chi2, crit[procs])
			}
		})
	}
}

// TestFlowDirectorTable exercises pin, hit, repin and LRU eviction.
func TestFlowDirectorTable(t *testing.T) {
	cfg := Config{Enabled: true, Policy: PolicyFlowDirector}
	run(t, 1, func(th *sim.Thread) {
		s := newSized(cfg, 4, tableBuckets, 4, 1)
		hash := func(f uint64) uint32 { return uint32(f) }

		// Miss falls back to RSS.
		if _, ok := s.lookupFlow(th, 1, hash(1)); ok {
			t.Fatal("empty table reported a hit")
		}
		s.Pin(th, 1, hash(1), 3)
		if p, ok := s.lookupFlow(th, 1, hash(1)); !ok || p != 3 {
			t.Fatalf("pinned flow resolved to (%d,%v), want (3,true)", p, ok)
		}
		// Repin to a different processor counts a migration.
		s.Pin(th, 1, hash(1), 2)
		if s.stats.Repins != 1 {
			t.Fatalf("repins = %d, want 1", s.stats.Repins)
		}
		// Fill the bucket and overflow it: the LRU entry (flow 1, the
		// oldest untouched after the fills) must go.
		for f := uint64(2); f <= 4; f++ {
			s.Pin(th, f, hash(f), 0)
		}
		th.Charge(10) // advance time so LRU stamps order strictly
		s.Pin(th, 5, hash(5), 0)
		if s.stats.Evictions != 1 {
			t.Fatalf("evictions = %d, want 1", s.stats.Evictions)
		}
		if _, ok := s.lookupFlow(th, 1, hash(1)); ok {
			t.Fatal("LRU flow survived eviction")
		}
		if p, ok := s.lookupFlow(th, 5, hash(5)); !ok || p != 0 {
			t.Fatalf("new flow resolved to (%d,%v), want (0,true)", p, ok)
		}
	})
}

// TestRebalanceQuiescence: an over-threshold sample migrates the
// hottest bucket immediately, then the rebalancer is held for the
// quiescence delay — further over-threshold samples move nothing until
// it expires.
func TestRebalanceQuiescence(t *testing.T) {
	cfg := Config{
		Enabled: true, Policy: PolicyRebalance,
		QuiescenceNs: 1_000_000, ImbalanceThresholdPct: 10,
	}
	run(t, 1, func(th *sim.Thread) {
		s := newSized(cfg, 2, 8, flowTableSize, flowTableLocks)
		th.Charge(1000)
		// Load bucket 0 (mapped to proc 0) so it is the migration pick.
		hash := uint32(0) // bucket 0
		for i := 0; i < 100; i++ {
			if got := s.Decide(th, 0, hash); got != 0 {
				t.Fatalf("bucket 0 steered to %d before rebalance", got)
			}
		}
		s.Sample(th, []int{10, 0}) // proc 0 overloaded: migrate now
		if s.stats.Moves != 1 {
			t.Fatalf("moves = %d, want 1", s.stats.Moves)
		}
		if got := s.Decide(th, 0, hash); got != 1 {
			t.Fatalf("bucket not remapped by migration (got proc %d)", got)
		}
		// Still imbalanced, but the rebalancer is quiescent.
		for i := 0; i < 100; i++ {
			s.Decide(th, 0, hash)
		}
		th.Charge(100_000)
		s.Sample(th, []int{0, 10})
		if s.stats.Moves != 1 || s.stats.Held != 1 {
			t.Fatalf("moves = %d, held = %d during quiescence, want 1, 1", s.stats.Moves, s.stats.Held)
		}
		// After the delay expires the rebalancer acts again.
		for i := 0; i < 100; i++ {
			s.Decide(th, 0, hash)
		}
		th.Charge(2_000_000)
		s.Sample(th, []int{0, 10})
		if s.stats.Moves != 2 {
			t.Fatalf("moves = %d after quiescence expiry, want 2", s.stats.Moves)
		}
		if got := s.Decide(th, 0, hash); got != 0 {
			t.Fatalf("bucket not remapped back (got proc %d)", got)
		}
		if s.stats.PeakQueuePct <= 0 {
			t.Fatal("peak queue imbalance not recorded")
		}
	})
}

// TestPacketPolicyRoundRobin pins the baseline policy.
func TestPacketPolicyRoundRobin(t *testing.T) {
	run(t, 1, func(th *sim.Thread) {
		s := New(Config{Enabled: true, Policy: PolicyPacket}, 3)
		for i := 0; i < 9; i++ {
			if got := s.Decide(th, uint64(i), 0); got != i%3 {
				t.Fatalf("decision %d = %d, want %d", i, got, i%3)
			}
		}
	})
}

// TestDecideHeatsBucketOnFlowHit enforces that the rebalancer's heat
// signal counts every decision — including exact-match Flow Director
// hits, which return before the indirection table is consulted. A hit
// path that skipped the counter would leave hot buckets looking cold,
// and Sample would migrate the wrong one.
func TestDecideHeatsBucketOnFlowHit(t *testing.T) {
	cfg := Config{Enabled: true, Policy: PolicyFlowDirector}
	run(t, 1, func(th *sim.Thread) {
		s := newSized(cfg, 4, 8, 16, 1)
		const flow, hash = uint64(7), uint32(3) // bucket 3
		s.Pin(th, flow, hash, 2)
		for i := 0; i < 5; i++ {
			if got := s.Decide(th, flow, hash); got != 2 {
				t.Fatalf("pinned flow steered to %d, want 2", got)
			}
		}
		if s.stats.FlowHits != 5 {
			t.Fatalf("flow hits = %d, want 5", s.stats.FlowHits)
		}
		if got := s.bucketPkts[s.Bucket(hash)]; got != 5 {
			t.Fatalf("bucketPkts[%d] = %d after 5 exact-match hits, want 5",
				s.Bucket(hash), got)
		}
		// The miss/RSS path heats the same counter.
		s.Decide(th, 99, hash)
		if got := s.bucketPkts[s.Bucket(hash)]; got != 6 {
			t.Fatalf("bucketPkts[%d] = %d after RSS fallback, want 6",
				s.Bucket(hash), got)
		}
	})
}

// TestResetPeak pins the snapshot contract steerSnapshot relies on:
// ResetPeak clears only the peak-imbalance watermark, scoping it to the
// interval between snapshots, and leaves the cumulative counters alone.
func TestResetPeak(t *testing.T) {
	cfg := Config{
		Enabled: true, Policy: PolicyRebalance,
		ImbalanceThresholdPct: 1000, // never migrate
	}
	run(t, 1, func(th *sim.Thread) {
		s := newSized(cfg, 2, 8, flowTableSize, flowTableLocks)
		s.Sample(th, []int{10, 0})
		if s.Stats().PeakQueuePct <= 0 {
			t.Fatal("imbalanced sample did not record a peak")
		}
		s.ResetPeak()
		if got := s.Stats().PeakQueuePct; got != 0 {
			t.Fatalf("peak = %.1f after ResetPeak, want 0", got)
		}
		if s.Stats().Samples != 1 {
			t.Fatalf("ResetPeak disturbed cumulative counters: samples = %d", s.Stats().Samples)
		}
		// A milder post-reset interval records its own, smaller peak
		// rather than inheriting the earlier watermark.
		s.Sample(th, []int{3, 1})
		peak2 := s.Stats().PeakQueuePct
		if peak2 <= 0 || peak2 >= 400 {
			t.Fatalf("post-reset peak = %.1f, want the new interval's own (0, 400)", peak2)
		}
	})
}
