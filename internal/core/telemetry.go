package core

// Virtual-time telemetry (Config.SamplePeriodNs): the stack registers
// counter and gauge series with internal/telemetry in one fixed order,
// the engine snapshots them on exact virtual-time period boundaries,
// and three exports read the result — Perfetto counter tracks merged
// into the Chrome trace (CounterTracks), a CSV/JSON time-series dump
// (TimeSeries, WriteTimeSeriesCSV), and the top-N lock/flow attribution
// section ProfileReport appends (telemetrySection).
//
// Everything here is observation only: gauges read engine-serialized
// state, counters are bumped on paths that charge no extra virtual time
// and draw no randomness, so sampled runs are bit-identical to
// unsampled ones (see TestSampleDisabledIdentity).

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// buildTelemetry constructs the sampler and registers every series.
// Registration order is the export order; keep it fixed.
func (s *Stack) buildTelemetry() {
	cfg := &s.Cfg
	reg := telemetry.NewRegistry(cfg.SampleDepth)
	// procs+2 lock tracks: pumps plus the NIC/control and monitor/event
	// threads, mirroring the recorder's sizing.
	s.Tel = telemetry.NewSampler(reg, cfg.SamplePeriodNs, cfg.Procs+2)
	s.Eng.Tel = s.Tel

	s.telFlows = telemetry.NewFlowSketch(0, 0)
	s.telDel = &telemetry.Deliveries{Flows: s.telFlows}
	for p := 0; p < cfg.Procs; p++ {
		s.telDel.Pkts = append(s.telDel.Pkts, reg.Counter("pkts", p))
		s.telDel.Bytes = append(s.telDel.Bytes, reg.Counter("bytes", p))
	}
	for p := range s.steerQs {
		q := s.steerQs[p]
		reg.Gauge("queue-depth", p, func() int64 { return int64(q.Len()) })
	}

	reg.Gauge("throughput-bytes", -1, func() int64 {
		// The sinks appear at setup time, after Build registered this
		// gauge; read 0 until one exists.
		if s.steerSink == nil && s.udpSink == nil && s.tcpRecv == nil && s.Sink == nil {
			return 0
		}
		return s.Bytes()
	})
	if s.TCP != nil {
		reg.Gauge("tcp-segs-in", -1, func() int64 { return s.TCP.Stats().SegsIn })
		reg.Gauge("tcp-predicted", -1, func() int64 { return s.TCP.Stats().Predicted })
		reg.Gauge("tcp-rexmt", -1, func() int64 { return s.TCP.Stats().Rexmt })
	}
	if s.steerer != nil {
		reg.Gauge("steer-migrates", -1, func() int64 {
			st := s.steerer.Stats()
			return st.Moves + st.Repins
		})
		reg.Gauge("flow-evicts", -1, func() int64 { return s.steerer.Stats().Evictions })
		reg.Gauge("steer-drops", -1, func() int64 { return s.steerDrops })
		reg.Gauge("nic-frames", -1, func() int64 { f, _ := s.steerSrc.Produced(); return f })
		reg.Gauge("nic-bytes", -1, func() int64 { _, b := s.steerSrc.Produced(); return b })
		// Steered deliveries publish from the workload sink — it knows
		// the flow generation; unsteered shapes publish from pump().
		s.steerSink.Tel = s.telDel
	}
	if s.Cfg.Batch.Active() {
		reg.Gauge("batch-frames", -1, func() int64 { return s.batchFrames })
		reg.Gauge("batch-segs", -1, func() int64 { return s.batchSegs })
	}
}

// CounterTracks converts the sampled series into Perfetto counter
// tracks for trace.Recorder.WriteChromeTrace: counters export as
// per-period rates (suffix "/s"), gauges as raw values. Per-processor
// series are prefixed "pNN" so the tracks group per processor in the
// Perfetto track list. Returns nil when sampling is off.
func (s *Stack) CounterTracks() []trace.CounterTrack {
	if s.Tel == nil {
		return nil
	}
	period := float64(s.Tel.Period())
	var out []trace.CounterTrack
	for _, se := range s.Tel.Registry().Series() {
		ts, v := se.Samples()
		if len(ts) == 0 {
			continue
		}
		ct := trace.CounterTrack{Proc: se.Proc, Name: se.Name}
		if se.Proc >= 0 {
			ct.Name = fmt.Sprintf("p%02d %s", se.Proc, se.Name)
		}
		if se.Kind == telemetry.KindCounter {
			ct.Name += " /s"
			prev := int64(0)
			if se.Dropped() > 0 {
				// The ring lost the run's prefix: the first retained
				// sample only seeds the deltas.
				prev, ts, v = v[0], ts[1:], v[1:]
			}
			for i := range ts {
				ct.TS = append(ct.TS, ts[i])
				ct.V = append(ct.V, float64(v[i]-prev)*1e9/period)
				prev = v[i]
			}
		} else {
			for i := range ts {
				ct.TS = append(ct.TS, ts[i])
				ct.V = append(ct.V, float64(v[i]))
			}
		}
		out = append(out, ct)
	}
	return out
}

// TimeSeries returns the sampled series in wire form (nil when sampling
// is off).
func (s *Stack) TimeSeries() []telemetry.SeriesJSON {
	return s.Tel.Registry().Dump()
}

// WriteTimeSeriesCSV writes the sampled series in the long CSV format
// (header only when sampling is off).
func (s *Stack) WriteTimeSeriesCSV(w io.Writer) error {
	return s.Tel.Registry().WriteCSV(w)
}

// TelemetrySectionHeader opens the attribution addendum that sampling
// appends to ProfileReport. Everything from this line on is present
// only when Config.SamplePeriodNs is set; the report above it is
// byte-identical with sampling on or off.
const TelemetrySectionHeader = "\nTelemetry attribution:\n"

// telemetrySection renders the top-N contended locks (with holder-proc
// breakdown) and the top-N hottest flows from the sketch counters.
func (s *Stack) telemetrySection() string {
	var b strings.Builder
	b.WriteString(TelemetrySectionHeader)
	fmt.Fprintf(&b, "  sampled %d series every %d ns\n",
		len(s.Tel.Registry().Series()), s.Tel.Period())
	if top := s.Tel.TopLocks(5); len(top) > 0 {
		fmt.Fprintf(&b, "  top contended locks by total wait:\n")
		for _, a := range top {
			fmt.Fprintf(&b, "    %-26s wait %10.2f ms over %8d waits; held by",
				a.Name, float64(a.WaitNs)/1e6, a.Contended)
			for h, w := range a.ByHolder {
				if w == 0 {
					continue
				}
				pct := 100 * float64(w) / float64(a.WaitNs)
				if h == len(a.ByHolder)-1 {
					fmt.Fprintf(&b, " ?:%.0f%%", pct)
				} else {
					fmt.Fprintf(&b, " p%d:%.0f%%", h, pct)
				}
			}
			b.WriteByte('\n')
		}
	}
	if flows := s.telFlows.Top(5); len(flows) > 0 {
		fmt.Fprintf(&b, "  top flows by delivered bytes (%d tracked):\n", s.telFlows.Tracked())
		for _, f := range flows {
			label := fmt.Sprintf("conn %d", int(f.Flow>>32))
			if gen := uint32(f.Flow); gen > 0 {
				label += fmt.Sprintf(" gen %d", gen)
			}
			fmt.Fprintf(&b, "    %-26s %10d pkts %14d bytes\n", label, f.Pkts, f.Bytes)
		}
	}
	return b.String()
}
