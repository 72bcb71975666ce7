package core

import (
	"repro/internal/sim"
	"repro/internal/trace"
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

// LockJSON is one lock's contention record: the aggregate counters from
// the simulator plus, when tracing was on, the wait-time distribution.
type LockJSON struct {
	Name       string         `json:"name"`
	Acquires   int64          `json:"acquires"`
	Contended  int64          `json:"contended"`
	WaitNs     int64          `json:"wait_ns"`
	HoldNs     int64          `json:"hold_ns"`
	MaxWaiters int            `json:"max_waiters"`
	Wait       *HistogramJSON `json:"wait_hist,omitempty"`
}

// LayerJSON is one layer's residence-time distribution (inclusive of
// the layers nested below it).
type LayerJSON struct {
	Name      string        `json:"name"`
	Residence HistogramJSON `json:"residence"`
}

// ProfileJSON is the machine-readable per-run profile emitted by
// `ppbench -json` and consumed by internal/experiments: configuration,
// throughput, ordering and lock measurements, and (when tracing is on)
// the latency/wait distributions.
type ProfileJSON struct {
	Label      string  `json:"label"`
	Proto      string  `json:"proto"`
	Side       string  `json:"side"`
	Procs      int     `json:"procs"`
	Conns      int     `json:"conns"`
	PacketSize int     `json:"packet_size"`
	LockKind   string  `json:"lock_kind"`
	Seed       uint64  `json:"seed"`
	Mbps       float64 `json:"mbps"`
	OOOPct     float64 `json:"ooo_pct"`
	WireOOOPct float64 `json:"wire_ooo_pct,omitempty"`
	Packets    int64   `json:"packets"`
	// LockWaitFrac is state-lock wait over total processor time — the
	// paper's Pixie figure.
	LockWaitFrac float64 `json:"lock_wait_frac"`

	Locks  []LockJSON     `json:"locks,omitempty"`
	Layers []LayerJSON    `json:"layers,omitempty"`
	E2E    *HistogramJSON `json:"e2e_latency,omitempty"`
	// TraceDropped counts flight-recorder events lost to ring
	// overwrite (0 when tracing was off or the rings sufficed).
	TraceDropped int64 `json:"trace_dropped,omitempty"`

	// Telemetry attribution (present only when Config.SamplePeriodNs
	// was set): the sampling period and the top-N contended locks and
	// hottest flows. Slices, not maps, so the JSON is deterministic.
	SamplePeriodNs int64          `json:"sample_period_ns,omitempty"`
	TopLocks       []LockAttrJSON `json:"top_locks,omitempty"`
	TopFlows       []FlowAttrJSON `json:"top_flows,omitempty"`
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
	p := ProfileJSON{
		Label:        label,
		Proto:        s.Cfg.Proto.String(),
		Side:         s.Cfg.Side.String(),
		Procs:        s.Cfg.Procs,
		Conns:        s.Cfg.Connections,
		PacketSize:   s.Cfg.PacketSize,
		LockKind:     s.Cfg.LockKind.String(),
		Seed:         s.Cfg.Seed,
		Mbps:         res.Mbps,
		OOOPct:       res.OOOPct,
		WireOOOPct:   res.WireOOOPct,
		Packets:      res.Packets,
		LockWaitFrac: res.LockWaitFrac,
	}

	addLock := func(name string, st sim.LockStats) {
		if st.Acquires == 0 {
			return
		}
		lj := LockJSON{
			Name:       name,
			Acquires:   st.Acquires,
			Contended:  st.Contended,
			WaitNs:     st.WaitNs,
			HoldNs:     st.HoldNs,
			MaxWaiters: st.MaxWaiters,
		}
		p.Locks = append(p.Locks, lj)
	}
	// Names match the underlying sim lock names so recorder wait
	// histograms attach to the right aggregate rows below.
	for _, tcb := range s.sh.tcbs {
		addLock("tcp-state", tcb.StateLockStats())
	}
	for _, d := range s.demuxMaps() {
		addLock("map:"+d.layer+"-demux", d.m.LockStats())
	}
	addLock("malloc", s.Alloc.ArenaLockStats())

	if s.Rec != nil {
		// Attach wait distributions to the aggregate rows where the
		// recorder has one under the same underlying lock name; the
		// remaining per-lock histograms (e.g. per-layout TCP locks)
		// get rows of their own.
		seen := map[string]bool{}
		for i := range p.Locks {
			if h := s.Rec.WaitHistogram(p.Locks[i].Name); h != nil {
				hj := histJSON(h)
				p.Locks[i].Wait = &hj
				seen[p.Locks[i].Name] = true
			}
		}
		for _, name := range s.Rec.WaitNames() {
			if seen[name] {
				continue
			}
			h := s.Rec.WaitHistogram(name)
			hj := histJSON(h)
			p.Locks = append(p.Locks, LockJSON{Name: name, WaitNs: h.Sum(), Contended: h.Count(), Wait: &hj})
		}
		for _, name := range s.Rec.LayerNames() {
			p.Layers = append(p.Layers, LayerJSON{Name: name, Residence: histJSON(s.Rec.LayerHistogram(name))})
		}
		if e2e := s.Rec.EndToEnd(); e2e.Count() > 0 {
			hj := histJSON(e2e)
			p.E2E = &hj
		}
		p.TraceDropped = s.Rec.Dropped()
	}
	if s.Tel != nil {
		p.SamplePeriodNs = s.Tel.Period()
		for _, a := range s.Tel.TopLocks(5) {
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
