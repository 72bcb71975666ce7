package core

// Virtual-time telemetry (Config.SamplePeriodNs): the stack registers
// counter and gauge series with internal/telemetry in one fixed order,
// the engine snapshots them on exact virtual-time period boundaries,
// and three exports read the result — Perfetto counter tracks merged
// into the Chrome trace (CounterTracks), a CSV/JSON time-series dump
// (TimeSeries, WriteTimeSeriesCSV), and the top-N lock/flow attribution
// the profile carries (ProfileJSON.TopLocks, TopFlows).
//
// Everything here is observation only: gauges read engine-serialized
// state, counters are bumped on paths that charge no extra virtual time
// and draw no randomness, so sampled runs are bit-identical to
// unsampled ones (see TestSampleDisabledIdentity).

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/driver"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// buildTelemetry constructs the sampler and registers every series.
// Registration order is the export order; keep it fixed.
func (s *Stack) buildTelemetry() {
	cfg := &s.Cfg
	reg := telemetry.NewRegistry(telemetry.DefaultDepth)
	// procs+2 lock tracks, as many as the recorder has: pumps plus the
	// NIC/control and monitor/event threads.
	s.Tel = telemetry.NewSampler(reg, cfg.SamplePeriodNs, cfg.Procs+2)
	s.Rec.Tel = s.Tel

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

	reg.Gauge("throughput-bytes", -1, s.Bytes)
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
		nic := s.sh.peer.(*driver.UDPSource)
		reg.Gauge("nic-frames", -1, func() int64 { f, _ := nic.Produced(); return f })
		reg.Gauge("nic-bytes", -1, func() int64 { _, b := nic.Produced(); return b })
		// Steered deliveries publish from the sink — it knows
		// the flow generation; unsteered shapes publish from pump().
		s.Sink.Flows.Tel = s.telDel
	}
	if s.Cfg.Batch.Active() {
		reg.Gauge("batch-frames", -1, func() int64 { return atomic.LoadInt64(&s.batchFrames) })
		reg.Gauge("batch-segs", -1, func() int64 { return atomic.LoadInt64(&s.batchSegs) })
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
