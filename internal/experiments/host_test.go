package experiments

import (
	"sort"
	"strings"
	"testing"
)

// TestHostComparisonSimOnly: Backend "sim" skips the wall-clock half
// entirely — no host curves, no agreement verdict — and still renders.
func TestHostComparisonSimOnly(t *testing.T) {
	p := tiny()
	p.Backend = "sim"
	hc, err := RunHostComparison(p)
	if err != nil {
		t.Fatal(err)
	}
	if hc.HostRan {
		t.Error("Backend=sim still ran the host half")
	}
	if len(hc.Variants) != 3 || len(hc.Procs) < 2 {
		t.Fatalf("unexpected sweep shape: %d variants, %d rungs", len(hc.Variants), len(hc.Procs))
	}
	for _, v := range hc.Variants {
		if len(v.Sim) != len(hc.Procs) {
			t.Errorf("%s: %d sim points for %d rungs", v.Label, len(v.Sim), len(hc.Procs))
		}
		if v.Host != nil {
			t.Errorf("%s: host points present in a sim-only run", v.Label)
		}
		for i, y := range v.Sim {
			if y <= 0 {
				t.Errorf("%s @%dp: nonpositive sim throughput %f", v.Label, hc.Procs[i], y)
			}
		}
	}
	if len(hc.SimOrder) != 3 || hc.HostOrder != nil {
		t.Errorf("orders: sim %v host %v", hc.SimOrder, hc.HostOrder)
	}
	if !strings.Contains(hc.agreementSummary(), "skipped") {
		t.Errorf("sim-only summary does not say the host half was skipped:\n%s", hc.agreementSummary())
	}
}

// TestHostComparisonAgreement is the cross-substrate smoke: the sweep
// runs on both substrates at small scale and the winning strategy must
// be the same one on each. The full ordering and the speedup knees are
// reported, not asserted — at two rungs on a noisy CI machine the gap
// between the two single-connection variants is within scheduling
// jitter, but one connection per processor removes the shared state
// lock entirely and must win everywhere.
//
// The host half is a 40 ms wall-clock window per point, and on a small
// shared machine one preempted window is enough to reorder the top two.
// So the sweep runs three times, each strategy is judged by the median
// of its three top-rung rates, and the winner is asserted only when it
// leads the runner-up by more than either's own spread across the three
// runs; otherwise the measurement cannot tell them apart and the
// ordering is logged instead.
func TestHostComparisonAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("runs wall-clock measurement windows")
	}
	const halves = 3
	var hc HostComparison
	var top [3][halves]float64 // per variant: top-rung host Mb/s of each run
	for h := 0; h < halves; h++ {
		var err error
		if hc, err = RunHostComparison(tiny()); err != nil {
			t.Fatal(err)
		}
		if !hc.HostRan {
			t.Fatal("default Params skipped the host half")
		}
		for vi, v := range hc.Variants {
			for i, y := range v.Host {
				if y == 0 {
					// Zero after the retry loop means the scheduler starved
					// the run's head-of-line goroutine for entire windows —
					// seen on single-CPU machines under the race detector.
					// That is a property of the machine, not the substrate.
					t.Skipf("host starved at %s @%dp; skipping agreement check", v.Label, hc.Procs[i])
				}
			}
			top[vi][h] = v.Host[len(v.Host)-1]
		}
	}
	rank := make([]int, len(top)) // variants by median, best first
	for vi := range top {
		sort.Float64s(top[vi][:])
		rank[vi] = vi
	}
	sort.SliceStable(rank, func(a, b int) bool { return top[rank[a]][halves/2] > top[rank[b]][halves/2] })
	first, second := rank[0], rank[1]
	margin := top[first][halves/2] - top[second][halves/2]
	spread := max(top[first][halves-1]-top[first][0], top[second][halves-1]-top[second][0])
	winner, runnerUp := hc.Variants[first].Label, hc.Variants[second].Label
	switch {
	case margin <= spread:
		t.Logf("host cannot separate %s from %s (median margin %.0f Mb/s, run-to-run spread %.0f): winner not asserted",
			winner, runnerUp, margin, spread)
	case winner != hc.SimOrder[0]:
		t.Errorf("substrates disagree on the winning strategy: sim %v, host %s ahead of %s by %.0f Mb/s (spread %.0f)",
			hc.SimOrder, winner, runnerUp, margin, spread)
	}
	t.Logf("sim order %v (knees %v), last host order %v, full ordering agree=%v knees agree=%v",
		hc.SimOrder, knees(hc, func(v HostVariant) int { return v.SimKnee }),
		hc.HostOrder, hc.OrderAgree, hc.KneeAgree)
}

func knees(hc HostComparison, sel func(HostVariant) int) []int {
	out := make([]int, len(hc.Variants))
	for i, v := range hc.Variants {
		out[i] = sel(v)
	}
	return out
}
