package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/driver"
	"repro/internal/ip"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/steer"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/xmap"
)

// HistogramJSON is the machine-readable summary of one trace histogram.
// All values are virtual nanoseconds.
type HistogramJSON struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

func histJSON(h *trace.Histogram) HistogramJSON {
	return HistogramJSON{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}

// LockJSON is one lock's contention record. The stack's own locks come
// first, from the simulator's counters: each connection's state lock
// (tcp-state[conn i]), the demux maps (map:<layer>-demux), the message
// tool's arena (malloc) and, steered, the flow table's bucket locks
// (fdir flow table). A traced profile then adds one row per lock the
// flight recorder saw contended that none of those rows covers; such a
// row has no acquire or hold counts.
type LockJSON struct {
	Name       string `json:"name"`
	Acquires   int64  `json:"acquires"`
	Contended  int64  `json:"contended"`
	WaitNs     int64  `json:"wait_ns"`
	HoldNs     int64  `json:"hold_ns"`
	MaxWaiters int    `json:"max_waiters"`
}

// WaitJSON is the wait-time distribution of the locks the flight
// recorder files under one name.
type WaitJSON struct {
	Name string        `json:"name"`
	Wait HistogramJSON `json:"wait_hist"`
}

// LayerJSON is one layer's residence-time distribution (inclusive of
// the layers nested below it).
type LayerJSON struct {
	Name      string        `json:"name"`
	Residence HistogramJSON `json:"residence"`
}

// DemuxJSON is one layer's demultiplexing-map counters.
type DemuxJSON struct {
	Layer string `json:"layer"`
	xmap.Stats
}

// FaultJSON is the fault wire's counters plus what the TCP driver peer
// did about them: a sending peer's retransmissions on duplicate acks
// and on timeout (TCP receive), or a receiving peer's refused
// bad-checksum frames (TCP send).
type FaultJSON struct {
	driver.FaultStats
	PeerRexmt        *[2]int64 `json:"peer_rexmt,omitempty"`
	PeerBadChecksums *int64    `json:"peer_bad_checksums,omitempty"`
}

// SteerJSON is the flow-steering subsystem's counters, its ring drops,
// and what the sink delivered and how much of it out of order.
type SteerJSON struct {
	Policy string `json:"policy"`
	steer.Stats
	RingDrops  int64 `json:"ring_drops"`
	Delivered  int64 `json:"delivered"`
	Misordered int64 `json:"misordered"`
}

// BatchJSON is the receive batching stage's merged frames and the wire
// segments they carried.
type BatchJSON struct {
	MaxSegs int   `json:"max_segs"`
	Frames  int64 `json:"frames"`
	Segs    int64 `json:"segs"`
}

// ProfileJSON is the per-run profile, the one value both views render:
// Profile returns it for `ppbench -json` and internal/experiments, and
// ProfileReport prints it as text. It holds the configuration, the
// throughput, ordering and lock measurements, every layer's counters,
// and (when tracing or sampling is on) the recorder's distributions and
// the top-N attribution tables.
type ProfileJSON struct {
	Label      string  `json:"label"`
	Proto      string  `json:"proto"`
	Side       string  `json:"side"`
	Procs      int     `json:"procs"`
	Conns      int     `json:"conns"`
	PacketSize int     `json:"packet_size"`
	Checksum   bool    `json:"checksum"`
	Strategy   string  `json:"strategy"`
	LockKind   string  `json:"lock_kind"`
	Seed       uint64  `json:"seed"`
	ElapsedNs  int64   `json:"elapsed_ns"`
	Mbps       float64 `json:"mbps"`
	OOOPct     float64 `json:"ooo_pct"`
	WireOOOPct float64 `json:"wire_ooo_pct,omitempty"`
	Packets    int64   `json:"packets"`
	// LockWaitFrac is state-lock wait over total processor time — the
	// paper's Pixie figure.
	LockWaitFrac float64 `json:"lock_wait_frac"`

	Locks []LockJSON  `json:"locks,omitempty"`
	Msg   msg.Stats   `json:"msg"`
	Demux []DemuxJSON `json:"demux"`
	TCP   *tcp.Stats  `json:"tcp,omitempty"`
	Fault *FaultJSON  `json:"fault,omitempty"`
	IP    ip.Stats    `json:"ip"`
	Steer *SteerJSON  `json:"steer,omitempty"`
	Batch *BatchJSON  `json:"batch,omitempty"`

	Waits  []WaitJSON     `json:"waits,omitempty"`
	Layers []LayerJSON    `json:"layers,omitempty"`
	E2E    *HistogramJSON `json:"e2e_latency,omitempty"`
	// TraceDropped counts flight-recorder events lost to ring
	// overwrite (0 when tracing was off or the rings sufficed).
	TraceDropped int64 `json:"trace_dropped,omitempty"`

	// Telemetry attribution (present only when Config.SamplePeriodNs
	// was set): the sampling period, the number of series, and the
	// top-N contended locks and hottest flows. Slices, not maps, so the
	// JSON is deterministic.
	SamplePeriodNs int64          `json:"sample_period_ns,omitempty"`
	Series         int            `json:"series,omitempty"`
	TopLocks       []LockAttrJSON `json:"top_locks,omitempty"`
	TopFlows       []FlowAttrJSON `json:"top_flows,omitempty"`
	FlowsTracked   int            `json:"flows_tracked,omitempty"`
}

// HolderWaitJSON attributes part of a lock's total wait to the
// processor that held the lock when the waits began (-1: unknown).
type HolderWaitJSON struct {
	Proc   int   `json:"proc"`
	WaitNs int64 `json:"wait_ns"`
}

// LockAttrJSON is one entry of the top-N contended-lock table.
type LockAttrJSON struct {
	Name    string           `json:"name"`
	WaitNs  int64            `json:"wait_ns"`
	Waits   int64            `json:"waits"`
	Holders []HolderWaitJSON `json:"holders,omitempty"`
}

// FlowAttrJSON is one entry of the top-N hottest-flow table (estimates
// from the count-min sketch).
type FlowAttrJSON struct {
	Conn  int    `json:"conn"`
	Gen   uint32 `json:"gen,omitempty"`
	Pkts  int64  `json:"pkts"`
	Bytes int64  `json:"bytes"`
}

// Profile assembles the machine-readable profile for a completed run.
// res carries Run's measurements; label names the run in suites.
func (s *Stack) Profile(label string, res RunResult) ProfileJSON {
	p := s.profile()
	p.Label = label
	p.Mbps, p.OOOPct, p.WireOOOPct = res.Mbps, res.OOOPct, res.WireOOOPct
	p.Packets, p.LockWaitFrac = res.Packets, res.LockWaitFrac
	return p
}

// profile walks the stack's statistics once into the profile value.
func (s *Stack) profile() ProfileJSON {
	cfg := &s.Cfg
	p := ProfileJSON{
		Proto:      cfg.Proto.String(),
		Side:       cfg.Side.String(),
		Procs:      cfg.Procs,
		Conns:      cfg.Connections,
		PacketSize: cfg.PacketSize,
		Checksum:   cfg.Checksum,
		Strategy:   cfg.Strategy.String(),
		LockKind:   cfg.LockKind.String(),
		Seed:       cfg.Seed,
		ElapsedNs:  s.Eng.Now(),
		Msg:        s.Alloc.Stats(),
		IP:         s.IP.Stats(),
	}

	// covered holds the recorder names the rows below stand for: lock
	// names, or the common prefix of a family of numbered locks.
	covered := map[string]bool{}
	lock := func(name string, st sim.LockStats, recNames ...string) {
		for _, n := range recNames {
			covered[n] = true
		}
		if st.Acquires > 0 {
			p.Locks = append(p.Locks, LockJSON{name, st.Acquires, st.Contended, st.WaitNs, st.HoldNs, st.MaxWaiters})
		}
	}
	for i, tcb := range s.sh.tcbs {
		// The state locks of TCP-1, TCP-2 and TCP-6; each layout has only
		// its own.
		lock(fmt.Sprintf("tcp-state[conn %d]", i), tcb.StateLockStats(), "tcp-state", "tcp-snd", "tcp-rcv", "tcp-swnd", "tcp-rwnd")
	}
	// The demux maps bottom up: FDDI's, IP's, the transport's.
	maps := map[string]*xmap.Map{"fddi": s.FDDI.DemuxMap(), "ip": s.IP.DemuxMap()}
	layers := []string{"fddi", "ip"}
	if s.UDP != nil {
		maps["udp"], layers = s.UDP.DemuxMap(), append(layers, "udp")
	}
	if s.TCP != nil {
		maps["tcp"], layers = s.TCP.DemuxMap(), append(layers, "tcp")
	}
	for _, layer := range layers {
		name := "map:" + layer + "-demux"
		lock(name, maps[layer].LockStats(), name)
		p.Demux = append(p.Demux, DemuxJSON{layer, maps[layer].Stats()})
	}
	lock("malloc", s.Alloc.ArenaLockStats(), "malloc")
	if s.steerer != nil {
		lock("fdir flow table", s.steerer.LockStats(), "fdir-bucket")
	}

	if s.TCP != nil {
		ts := s.TCP.Stats()
		p.TCP = &ts
	}
	if s.fault != nil {
		p.Fault = &FaultJSON{FaultStats: s.fault.Stats()}
		switch peer := s.sh.peer.(type) {
		case *driver.SimTCPSender:
			dup, to := peer.Rexmts()
			p.Fault.PeerRexmt = &[2]int64{dup, to}
		case *driver.SimTCPReceiver:
			bad := peer.BadChecksums()
			p.Fault.PeerBadChecksums = &bad
		}
	}
	if s.steerer != nil {
		ooo, _, _ := s.Sink.Flows.Counts()
		p.Steer = &SteerJSON{cfg.Steer.Policy.String(), s.steerer.Stats(), s.steerDrops, s.Sink.Packets(), ooo}
	}
	if cfg.Batch.Active() {
		p.Batch = &BatchJSON{cfg.Batch.MaxSegs, atomic.LoadInt64(&s.batchFrames), atomic.LoadInt64(&s.batchSegs)}
	}

	if cfg.Trace {
		for _, name := range s.Rec.WaitNames() {
			h := s.Rec.WaitHistogram(name)
			p.Waits = append(p.Waits, WaitJSON{name, histJSON(h)})
			if !covered[strings.TrimRight(name, "0123456789")] {
				p.Locks = append(p.Locks, LockJSON{Name: name, Contended: h.Count(), WaitNs: h.Sum()})
			}
		}
		for _, name := range s.Rec.LayerNames() {
			p.Layers = append(p.Layers, LayerJSON{name, histJSON(s.Rec.LayerHistogram(name))})
		}
		if e2e := s.Rec.EndToEnd(); e2e.Count() > 0 {
			hj := histJSON(e2e)
			p.E2E = &hj
		}
		p.TraceDropped = s.Rec.Dropped()
	}
	if s.Tel != nil {
		p.SamplePeriodNs = s.Tel.Period()
		p.Series = len(s.Tel.Registry().Series())
		for _, a := range s.Rec.TopLocks(5) {
			lj := LockAttrJSON{Name: a.Name, WaitNs: a.WaitNs, Waits: a.Contended}
			for h, w := range a.ByHolder {
				if w == 0 {
					continue
				}
				proc := h
				if h == len(a.ByHolder)-1 {
					proc = -1 // unknown holder
				}
				lj.Holders = append(lj.Holders, HolderWaitJSON{Proc: proc, WaitNs: w})
			}
			p.TopLocks = append(p.TopLocks, lj)
		}
		p.FlowsTracked = s.telFlows.Tracked()
		for _, f := range s.telFlows.Top(5) {
			p.TopFlows = append(p.TopFlows, FlowAttrJSON{
				Conn:  int(f.Flow >> 32),
				Gen:   uint32(f.Flow),
				Pkts:  f.Pkts,
				Bytes: f.Bytes,
			})
		}
	}
	return p
}

// TraceSectionHeader opens the flight-recorder addendum that tracing
// appends to ProfileReport. Everything from this line on is present
// only when Config.Trace is set; the report above it is byte-identical
// with tracing on or off.
const TraceSectionHeader = "\nTrace histograms (virtual ns):\n"

// TelemetrySectionHeader opens the attribution addendum that sampling
// appends to ProfileReport. Everything from this line on is present
// only when Config.SamplePeriodNs is set; the report above it is
// byte-identical with sampling on or off.
const TelemetrySectionHeader = "\nTelemetry attribution:\n"

// ProfileReport renders the profile as a Pixie-style post-run report:
// where the virtual time went, lock by lock — the instrumentation
// behind the paper's "90 percent of the time is spent waiting to
// acquire the TCP connection state lock" observation. Call after Run.
func (s *Stack) ProfileReport() string {
	p := s.profile()
	var b strings.Builder
	cpuTime := p.ElapsedNs * int64(p.Procs)
	fmt.Fprintf(&b, "Profile: %s %s, %d procs, %d conns, %d-byte packets, checksum=%v, %s\n",
		p.Proto, p.Side, p.Procs, p.Conns, p.PacketSize, p.Checksum, p.Strategy)
	fmt.Fprintf(&b, "virtual time %.3f s; aggregate processor time %.3f s\n\n",
		float64(p.ElapsedNs)/1e9, float64(cpuTime)/1e9)

	fmt.Fprintf(&b, "Locks:\n  %-26s %10s %10s %10s %11s %11s %5s\n",
		"lock", "acquires", "contended", "cont%", "wait", "hold", "maxw")
	for _, l := range p.Locks {
		if l.Acquires == 0 {
			continue // a lock only the recorder saw: the trace section shows its waits
		}
		fmt.Fprintf(&b, "  %-26s %10d %10d %9.1f%% %8.2f ms %8.2f ms %5d\n",
			l.Name, l.Acquires, l.Contended,
			100*float64(l.Contended)/float64(l.Acquires),
			float64(l.WaitNs)/1e6, float64(l.HoldNs)/1e6, l.MaxWaiters)
		// A zero-duration run (Run never called, or an empty measurement
		// window) must not divide by elapsed.
		if strings.HasPrefix(l.Name, "tcp-state[") && p.ElapsedNs > 0 {
			fmt.Fprintf(&b, "  %-26s waiting = %.1f%% of one processor, %.1f%% of all processor time\n",
				"", 100*float64(l.WaitNs)/float64(p.ElapsedNs),
				100*float64(l.WaitNs)/float64(cpuTime))
		}
	}

	fmt.Fprintf(&b, "\nMessage tool:\n")
	ms := p.Msg
	total := ms.CacheHits + ms.CacheMisses
	hitPct := 0.0
	if total > 0 {
		hitPct = 100 * float64(ms.CacheHits) / float64(total)
	}
	fmt.Fprintf(&b, "  per-processor cache hits %d / %d (%.1f%%), arena allocations %d, frees %d\n",
		ms.CacheHits, total, hitPct, ms.ArenaAllocs, ms.Frees)

	fmt.Fprintf(&b, "\nDemultiplexing:\n")
	for _, d := range p.Demux {
		fmt.Fprintf(&b, "  %-9s %d resolves, %d one-behind hits\n", d.Layer+" map:", d.Resolves, d.CacheHits)
	}

	if ts := p.TCP; ts != nil {
		fmt.Fprintf(&b, "\nTCP:\n")
		fmt.Fprintf(&b, "  segs in %d (data %d, ooo %d, predicted %d), segs out %d (acks %d)\n",
			ts.SegsIn, ts.DataSegsIn, ts.OOOSegsIn, ts.Predicted, ts.SegsOut, ts.AcksOut)
		fmt.Fprintf(&b, "  delivered %d, rexmt %d (+%d fast), dropped %d, checksum-bad %d\n",
			ts.Delivered, ts.Rexmt, ts.FastRexmt, ts.Dropped, ts.ChecksumBad)
		if ts.SegsIn > 0 {
			// Header prediction is attempted for every arriving segment
			// — data and pure acks alike — so its hit rate is over
			// SegsIn. Out-of-order arrival is a property of data
			// segments only, so that rate is over DataSegsIn.
			fmt.Fprintf(&b, "  header prediction hit rate %.1f%% (%d/%d segs)\n",
				100*float64(ts.Predicted)/float64(ts.SegsIn), ts.Predicted, ts.SegsIn)
		}
		if ts.DataSegsIn > 0 {
			fmt.Fprintf(&b, "  out-of-order %.1f%% of %d data segs\n",
				100*float64(ts.OOOSegsIn)/float64(ts.DataSegsIn), ts.DataSegsIn)
		}
	}
	if fs := p.Fault; fs != nil {
		fmt.Fprintf(&b, "\nFault wire:\n")
		dir := func(name string, d driver.FaultDirStats) {
			if d.Frames == 0 && d.Dropped == 0 {
				return
			}
			fmt.Fprintf(&b, "  %-20s %7d frames: %d dropped, %d duplicated, %d corrupted, %d reordered\n",
				name, d.Frames, d.Dropped, d.Duplicated, d.Corrupted, d.Reordered)
		}
		dir("up (wire->stack)", fs.Up)
		dir("down (stack->wire)", fs.Down)
		if r := fs.PeerRexmt; r != nil {
			fmt.Fprintf(&b, "  peer retransmissions: %d on dup-acks, %d on timeout\n", r[0], r[1])
		}
		if bad := fs.PeerBadChecksums; bad != nil {
			fmt.Fprintf(&b, "  peer rejected %d bad-checksum frames\n", *bad)
		}
	}
	fmt.Fprintf(&b, "\nIP: sent %d, received %d, fragments dropped %d\n", p.IP.Sent, p.IP.Received, p.IP.FragsDropped)
	if ss := p.Steer; ss != nil {
		fmt.Fprintf(&b, "\nSteering (%s):\n", ss.Policy)
		fmt.Fprintf(&b, "  %d decisions; flow table %d hits / %d misses, %d repins, %d evictions\n",
			ss.Decisions, ss.FlowHits, ss.FlowMiss, ss.Repins, ss.Evictions)
		fmt.Fprintf(&b, "  rebalancer: %d samples, %d bucket moves, %d held by quiescence\n",
			ss.Samples, ss.Moves, ss.Held)
		fmt.Fprintf(&b, "  ring drops %d\n", ss.RingDrops)
		if ss.Delivered > 0 {
			fmt.Fprintf(&b, "  delivered %d packets, %d misordered (%.1f%%)\n",
				ss.Delivered, ss.Misordered, 100*float64(ss.Misordered)/float64(ss.Delivered))
		}
	}
	if bs := p.Batch; bs != nil {
		fmt.Fprintf(&b, "\nBatching (max %d segs / %d bytes, flush %d ns):\n",
			bs.MaxSegs, msg.MaxClassBytes, msg.BatchFlushNs)
		spf := 0.0
		if bs.Frames > 0 {
			spf = float64(bs.Segs) / float64(bs.Frames)
		}
		fmt.Fprintf(&b, "  %d merged frames carrying %d wire segments (%.2f segs/frame)\n",
			bs.Frames, bs.Segs, spf)
	}

	if s.Cfg.Trace {
		b.WriteString(TraceSectionHeader)
		hrow := func(name string, h HistogramJSON) {
			if h.Count == 0 {
				return
			}
			fmt.Fprintf(&b, "  %-26s n=%-9d p50=%-10d p90=%-10d p99=%-10d max=%d\n",
				name, h.Count, h.P50, h.P90, h.P99, h.Max)
		}
		for _, w := range p.Waits {
			hrow("wait "+w.Name, w.Wait)
		}
		for _, l := range p.Layers {
			hrow("layer "+l.Name, l.Residence)
		}
		if p.E2E != nil {
			hrow("end-to-end", *p.E2E)
		}
		if p.TraceDropped > 0 {
			fmt.Fprintf(&b, "  ring overwrote %d events (raise trace.DefaultDepth for full timelines)\n", p.TraceDropped)
		}
	}
	if p.SamplePeriodNs > 0 {
		b.WriteString(TelemetrySectionHeader)
		fmt.Fprintf(&b, "  sampled %d series every %d ns\n", p.Series, p.SamplePeriodNs)
		if len(p.TopLocks) > 0 {
			fmt.Fprintf(&b, "  top contended locks by total wait:\n")
			for _, a := range p.TopLocks {
				fmt.Fprintf(&b, "    %-26s wait %10.2f ms over %8d waits; held by",
					a.Name, float64(a.WaitNs)/1e6, a.Waits)
				for _, h := range a.Holders {
					pct := 100 * float64(h.WaitNs) / float64(a.WaitNs)
					if h.Proc < 0 {
						fmt.Fprintf(&b, " ?:%.0f%%", pct)
					} else {
						fmt.Fprintf(&b, " p%d:%.0f%%", h.Proc, pct)
					}
				}
				b.WriteByte('\n')
			}
		}
		if len(p.TopFlows) > 0 {
			fmt.Fprintf(&b, "  top flows by delivered bytes (%d tracked):\n", p.FlowsTracked)
			for _, f := range p.TopFlows {
				label := fmt.Sprintf("conn %d", f.Conn)
				if f.Gen > 0 {
					label += fmt.Sprintf(" gen %d", f.Gen)
				}
				fmt.Fprintf(&b, "    %-26s %10d pkts %14d bytes\n", label, f.Pkts, f.Bytes)
			}
		}
	}
	return b.String()
}
