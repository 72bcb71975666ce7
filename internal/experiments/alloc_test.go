package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestCatalogueSteadyStateAllocs: a catalogue point starts from the
// message buffers the points before it released, so once a set-up pass
// has run, a full pass of the same spec adds next to no heap
// allocations per packet; an engine that grows its arena from an empty
// heap reads about 0.18 here. The GC is off so that it cannot empty the
// buffer pool mid-test.
func TestCatalogueSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	spec, _ := Lookup("fig11")
	p := Params{MaxProcs: 8, WarmupNs: 25_000_000, MeasureNs: 50_000_000, Runs: 1, Seed: 1994}
	cfgs := spec.Configs(p)
	pass := func(warmupNs, measureNs int64) (mallocs uint64, pkts float64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, c := range cfgs {
			rr, err := core.RunPoint(c, warmupNs, measureNs)
			if err != nil {
				t.Fatal(err)
			}
			pkts += rr.Mbps * 1e6 / 8 * float64(measureNs) / 1e9 / float64(c.PacketSize)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, pkts
	}
	setup, _ := pass(1, 1)
	full, pkts := pass(p.WarmupNs, p.MeasureNs)
	perPkt := (float64(full) - float64(setup)) / pkts
	t.Logf("%d points: %d mallocs set-up, %d full, %.0f packets: %.3f extra mallocs per packet", len(cfgs), setup, full, pkts, perPkt)
	if perPkt > 0.05 {
		t.Errorf("%.3f extra mallocs per packet past set-up, want at most 0.05", perPkt)
	}
}

// TestRecycledBuffersCarryNothing: ext-loss's fault wire corrupts
// payload bytes, and its points release those buffers to the points
// after them. Figure 8-9's tables must not change for running next.
// Two collections empty the pool first, so the first run starts from
// new buffers; then the GC is off, so the pool keeps what ext-loss left.
func TestRecycledBuffersCarryNothing(t *testing.T) {
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(id string) string {
		spec, _ := Lookup(id)
		tables, err := spec.Run(digestParams())
		if err != nil {
			t.Fatal(err)
		}
		return render(tables)
	}
	first := run("fig08-09")
	run("ext-loss")
	if run("fig08-09") != first {
		t.Error("fig08-09's tables changed after ext-loss released its buffers")
	}
}

// TestPooledCoroutinesCarryNothing: a catalogue point's threads run on
// coroutines that the points before it parked, whatever those points
// ran. Figure 8-9's tables must be the same on new coroutines (the
// process list drained first), on coroutines that ext-loss's fault
// wire and fig14's MCS locks ran, and with two workers adopting from
// the list at once.
func TestPooledCoroutinesCarryNothing(t *testing.T) {
	run := func(id string, workers int) string {
		spec, _ := Lookup(id)
		p := digestParams()
		p.Workers = workers
		tables, err := spec.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return render(tables)
	}
	sim.ReleaseParked()
	fresh := run("fig08-09", 1)
	run("ext-loss", 1)
	run("fig14", 1)
	if run("fig08-09", 1) != fresh {
		t.Error("fig08-09's tables changed on coroutines ext-loss and fig14 parked")
	}
	if run("fig08-09", 2) != fresh {
		t.Error("fig08-09's tables changed with two workers sharing the process list")
	}
}
