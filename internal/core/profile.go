package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/driver"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xmap"
)

// ProfileReport renders a Pixie-style post-run profile: where the
// virtual time went, lock by lock — the instrumentation behind the
// paper's "90 percent of the time is spent waiting to acquire the TCP
// connection state lock" observation. Call after Run.
func (s *Stack) ProfileReport() string {
	var b strings.Builder
	elapsed := s.Eng.Now()
	cpuTime := elapsed * int64(s.Cfg.Procs)
	fmt.Fprintf(&b, "Profile: %v %v, %d procs, %d conns, %d-byte packets, checksum=%v, %v\n",
		s.Cfg.Proto, s.Cfg.Side, s.Cfg.Procs, s.Cfg.Connections,
		s.Cfg.PacketSize, s.Cfg.Checksum, s.Cfg.Strategy)
	fmt.Fprintf(&b, "virtual time %.3f s; aggregate processor time %.3f s\n\n",
		float64(elapsed)/1e9, float64(cpuTime)/1e9)

	row := func(name string, st sim.LockStats) {
		if st.Acquires == 0 {
			return
		}
		fmt.Fprintf(&b, "  %-26s %10d %10d %9.1f%% %8.2f ms %8.2f ms %5d\n",
			name, st.Acquires, st.Contended,
			100*float64(st.Contended)/float64(st.Acquires),
			float64(st.WaitNs)/1e6, float64(st.HoldNs)/1e6, st.MaxWaiters)
	}
	fmt.Fprintf(&b, "Locks:\n  %-26s %10s %10s %10s %11s %11s %5s\n",
		"lock", "acquires", "contended", "cont%", "wait", "hold", "maxw")
	for i, tcb := range s.sh.tcbs {
		st := tcb.StateLockStats()
		row(fmt.Sprintf("tcp-state[conn %d]", i), st)
		// A zero-duration run (Run never called, or an empty measurement
		// window) must not divide by elapsed.
		if elapsed > 0 {
			fmt.Fprintf(&b, "  %-26s waiting = %.1f%% of one processor, %.1f%% of all processor time\n",
				"", 100*float64(st.WaitNs)/float64(elapsed),
				100*float64(st.WaitNs)/float64(cpuTime))
		}
	}
	for _, d := range s.demuxMaps() {
		row(d.layer+"-demux map", d.m.LockStats())
	}
	row("malloc arena", s.Alloc.ArenaLockStats())
	if s.steerer != nil {
		row("fdir flow table", s.steerer.LockStats())
	}

	fmt.Fprintf(&b, "\nMessage tool:\n")
	ms := s.Alloc.Stats()
	total := ms.CacheHits + ms.CacheMisses
	hitPct := 0.0
	if total > 0 {
		hitPct = 100 * float64(ms.CacheHits) / float64(total)
	}
	fmt.Fprintf(&b, "  per-processor cache hits %d / %d (%.1f%%), arena allocations %d, frees %d\n",
		ms.CacheHits, total, hitPct, ms.ArenaAllocs, ms.Frees)

	fmt.Fprintf(&b, "\nDemultiplexing:\n")
	for _, d := range s.demuxMaps() {
		st := d.m.Stats()
		fmt.Fprintf(&b, "  %-9s %d resolves, %d one-behind hits\n", d.layer+" map:", st.Resolves, st.CacheHits)
	}

	if s.TCP != nil {
		ts := s.TCP.Stats()
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
	if s.fault != nil {
		fs := s.fault.Stats()
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
		switch p := s.sh.peer.(type) {
		case *driver.SimTCPSender:
			dup, to := p.Rexmts()
			fmt.Fprintf(&b, "  peer retransmissions: %d on dup-acks, %d on timeout\n", dup, to)
		case *driver.SimTCPReceiver:
			fmt.Fprintf(&b, "  peer rejected %d bad-checksum frames\n", p.BadChecksums())
		}
	}
	is := s.IP.Stats()
	fmt.Fprintf(&b, "\nIP: sent %d, received %d, fragments dropped %d\n", is.Sent, is.Received, is.FragsDropped)
	if s.steerer != nil {
		ss := s.steerer.Stats()
		fmt.Fprintf(&b, "\nSteering (%v):\n", s.Cfg.Steer.Policy)
		fmt.Fprintf(&b, "  %d decisions; flow table %d hits / %d misses, %d repins, %d evictions\n",
			ss.Decisions, ss.FlowHits, ss.FlowMiss, ss.Repins, ss.Evictions)
		fmt.Fprintf(&b, "  rebalancer: %d samples, %d bucket moves, %d held by quiescence\n",
			ss.Samples, ss.Moves, ss.Held)
		fmt.Fprintf(&b, "  ring drops %d\n", s.steerDrops)
		ooo, _, _ := s.Sink.Flows.Counts()
		pkts := s.Sink.Packets()
		if pkts > 0 {
			fmt.Fprintf(&b, "  delivered %d packets, %d misordered (%.1f%%)\n",
				pkts, ooo, 100*float64(ooo)/float64(pkts))
		}
	}
	if s.Cfg.Batch.Active() {
		fmt.Fprintf(&b, "\nBatching (max %d segs / %d bytes, flush %d ns):\n",
			s.Cfg.Batch.MaxSegs, msg.MaxClassBytes, msg.BatchFlushNs)
		frames, segs := atomic.LoadInt64(&s.batchFrames), atomic.LoadInt64(&s.batchSegs)
		spf := 0.0
		if frames > 0 {
			spf = float64(segs) / float64(frames)
		}
		fmt.Fprintf(&b, "  %d merged frames carrying %d wire segments (%.2f segs/frame)\n",
			frames, segs, spf)
	}
	if s.Rec != nil {
		b.WriteString(s.traceSection())
	}
	if s.Tel != nil {
		b.WriteString(s.telemetrySection())
	}
	return b.String()
}

// demuxMap is one layer's demultiplexing map.
type demuxMap struct {
	layer string
	m     *xmap.Map
}

// demuxMaps lists the demux maps bottom up: FDDI's, IP's, the
// transport's.
func (s *Stack) demuxMaps() []demuxMap {
	maps := []demuxMap{{"fddi", s.FDDI.DemuxMap()}, {"ip", s.IP.DemuxMap()}}
	if s.UDP != nil {
		maps = append(maps, demuxMap{"udp", s.UDP.DemuxMap()})
	}
	if s.TCP != nil {
		maps = append(maps, demuxMap{"tcp", s.TCP.DemuxMap()})
	}
	return maps
}

// TraceSectionHeader opens the flight-recorder addendum that tracing
// appends to ProfileReport. Everything from this line on is present
// only when Config.Trace is set; the report above it is byte-identical
// with tracing on or off.
const TraceSectionHeader = "\nTrace histograms (virtual ns):\n"

// traceSection renders the recorder's histograms: per-lock wait, per-
// layer residence (inclusive of nested layers), end-to-end latency.
func (s *Stack) traceSection() string {
	var b strings.Builder
	b.WriteString(TraceSectionHeader)
	hrow := func(name string, h *trace.Histogram) {
		if h.Count() == 0 {
			return
		}
		fmt.Fprintf(&b, "  %-26s n=%-9d p50=%-10d p90=%-10d p99=%-10d max=%d\n",
			name, h.Count(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max())
	}
	for _, name := range s.Rec.WaitNames() {
		hrow("wait "+name, s.Rec.WaitHistogram(name))
	}
	for _, name := range s.Rec.LayerNames() {
		hrow("layer "+name, s.Rec.LayerHistogram(name))
	}
	hrow("end-to-end", s.Rec.EndToEnd())
	if d := s.Rec.Dropped(); d > 0 {
		fmt.Fprintf(&b, "  ring overwrote %d events (raise trace.DefaultDepth for full timelines)\n", d)
	}
	return b.String()
}
