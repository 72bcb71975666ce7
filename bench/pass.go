package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/measure"
	"repro/internal/sim"
)

// passResult is what one pass over a workload — Build plus Run for a
// stack, one regeneration of the catalogue for paper-figs — measured
// from outside.
type passResult struct {
	buildS, runS float64 // host seconds in core.Build and in Stack.Run
	mallocs      uint64  // Go heap allocations during the pass
	allocBytes   uint64  // Go heap bytes allocated during the pass

	mbps    float64 // virtual-time Mb/s (wall-clock on the host backend)
	speedup float64 // catalogue only: geomean over curves of last/first point
	bytes   int64   // payload bytes moved, whole run
	pkts    int64   // packets moved, whole run
	failed  int64   // packets dropped or rejected
	points  int     // catalogue only: simulation points run
	// digest fingerprints every virtual-time result of the pass. Sim
	// passes of one configuration must agree on it bit for bit.
	digest string

	st  *core.Stack // nil for the catalogue
	res core.RunResult
}

func (p *passResult) wallS() float64 { return p.buildS + p.runS }

// runStack builds cfg and runs it for the given intervals, with harness
// spans around both calls into core.
func runStack(sp *spanLog, cfg core.Config, warmNs, measNs int64) (passResult, error) {
	var m0, m1 runtime.MemStats
	var p passResult
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	end := sp.begin("core.Build")
	st, err := core.Build(cfg)
	end()
	if err != nil {
		return p, fmt.Errorf("build: %w", err)
	}
	t1 := time.Now()
	end = sp.begin("Stack.Run")
	res, err := st.Run(warmNs, measNs)
	end()
	t2 := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return p, fmt.Errorf("run: %w", err)
	}
	p = passResult{
		buildS: t1.Sub(t0).Seconds(), runS: t2.Sub(t1).Seconds(),
		mallocs: m1.Mallocs - m0.Mallocs, allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mbps: res.Mbps, bytes: st.Bytes(), st: st, res: res,
	}
	p.pkts = p.bytes / int64(cfg.PacketSize)
	p.failed = res.SteerDrops
	if st.TCP != nil {
		ts := st.TCP.Stats()
		p.failed += ts.Dropped + ts.ChecksumBad
	}
	if st.UDP != nil {
		us := st.UDP.Stats()
		p.failed += us.NoPort + us.ChecksumBad
	}
	is := st.IP.Stats()
	p.failed += is.ChecksumBad + is.NotDeliverable
	if cfg.Backend == sim.BackendSim {
		p.digest = stackDigest(st, res)
	}
	return p, nil
}

// stackDigest renders every virtual-time result reachable from outside:
// the run result, the throughput counter, and each layer's counters.
func stackDigest(st *core.Stack, res core.RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v|%d|%d|%+v|%+v|%+v|%+v", res, st.Bytes(), st.Eng.Now(),
		st.IP.Stats(), st.Alloc.Stats(), st.Alloc.ArenaLockStats(), st.FDDI.DemuxMap().Stats())
	if st.TCP != nil {
		fmt.Fprintf(&b, "|%+v|%+v", st.TCP.Stats(), st.TCP.DemuxMap().LockStats())
	}
	if st.UDP != nil {
		fmt.Fprintf(&b, "|%+v|%+v", st.UDP.Stats(), st.UDP.DemuxMap().LockStats())
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]
}

// checkStack verifies one pass's outputs: the bytes the sink counted
// are the messages the transport delivered, nothing failed a checksum,
// and traffic actually moved.
func checkStack(p *passResult) error {
	st, cfg := p.st, p.st.Cfg
	if p.pkts <= 0 || p.mbps <= 0 {
		return fmt.Errorf("no traffic moved (%d packets, %.3f Mb/s)", p.pkts, p.mbps)
	}
	if p.bytes%int64(cfg.PacketSize) != 0 {
		return fmt.Errorf("%d payload bytes is not a whole number of %d-byte packets", p.bytes, cfg.PacketSize)
	}
	delivered, bad := int64(0), st.IP.Stats().ChecksumBad
	if st.TCP != nil {
		ts := st.TCP.Stats()
		delivered, bad = ts.Delivered, bad+ts.ChecksumBad
	} else {
		us := st.UDP.Stats()
		delivered, bad = us.Delivered, bad+us.ChecksumBad
	}
	if bad != 0 {
		return fmt.Errorf("%d checksum failures on a fault-free wire", bad)
	}
	if cfg.Side != core.SideRecv {
		return nil // the send side's counter is the peer driver's, not a sink's
	}
	// A GRO frame is one delivery carrying several packets.
	if cfg.Batch.Active() {
		if delivered > p.pkts {
			return fmt.Errorf("transport delivered %d frames but the sink saw only %d packets", delivered, p.pkts)
		}
	} else if delivered != p.pkts {
		return fmt.Errorf("sink counted %d packets, transport delivered %d", p.pkts, delivered)
	}
	return nil
}

// runCatalogue regenerates the paper's tables and figures once through
// the experiments pool. Specs run one after another (as `ppbench
// -experiment all` does); the points within a spec fan out across
// workers.
func runCatalogue(sp *spanLog, seed uint64, warmNs, measNs int64, workers int) (passResult, error) {
	var m0, m1 runtime.MemStats
	var p passResult
	params := experiments.Params{MaxProcs: paperFigsMaxProcs, WarmupNs: warmNs, MeasureNs: measNs,
		Runs: 1, Seed: seed, Workers: workers}
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	h := sha256.New()
	var logMbps, logSpeedup float64
	var curves int
	for _, id := range paperFigs {
		spec, ok := experiments.Lookup(id)
		if !ok {
			return p, fmt.Errorf("catalogue has no experiment %q", id)
		}
		end := sp.begin("experiments." + id)
		tables, err := spec.Run(params)
		end()
		if err != nil {
			return p, fmt.Errorf("%s: %w", id, err)
		}
		for _, tb := range tables {
			h.Write([]byte(tb.CSV()))
			if !throughputTable(tb) {
				continue
			}
			for _, s := range tb.Series {
				size := seriesPacketSize(s.Label)
				for _, pt := range s.Points {
					bytes := pt.Mean * 1e6 / 8 * float64(measNs) / 1e9
					p.bytes += int64(bytes)
					p.pkts += int64(bytes) / int64(size)
					p.points++
					logMbps += math.Log(max(pt.Mean, minCurveMbps))
				}
				if n := len(s.Points); n > 1 {
					logSpeedup += math.Log(max(s.Points[n-1].Mean, minCurveMbps) / max(s.Points[0].Mean, minCurveMbps))
					curves++
				}
			}
		}
	}
	runtime.ReadMemStats(&m1)
	p.runS = time.Since(t0).Seconds()
	p.mallocs, p.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	if p.points == 0 || curves == 0 {
		return p, fmt.Errorf("catalogue produced no throughput curves")
	}
	p.mbps = math.Exp(logMbps / float64(p.points))
	p.speedup = math.Exp(logSpeedup / float64(curves))
	p.digest = fmt.Sprintf("%x", h.Sum(nil))[:16]
	return p, nil
}

// minCurveMbps keeps the geometric means finite on a set-up-only pass,
// whose 1 ns measurement interval moves nothing.
const minCurveMbps = 1e-9

// throughputTable reports whether a table's points are Mb/s (not the
// speedup twin of another table, not Table 1's misordering percentages).
func throughputTable(tb measure.Table) bool {
	return !tb.Speedup && (tb.YLabel == "" || tb.YLabel == "Mbit/s")
}

// seriesPacketSize recovers a curve's packet size from its label: the
// catalogue's tables carry Mb/s only, and every paper curve is either
// labelled 1K/1KB or runs the 4 KB default.
func seriesPacketSize(label string) int {
	if strings.Contains(label, "1K") {
		return 1024
	}
	return 4096
}
