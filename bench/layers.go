package main

import (
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xmap"
)

// measureLayers is the traced run: pairs of an untraced and a traced
// full pass until the time budget is spent, the traced one under a CPU
// profile. The difference within a pair is the observers' host cost;
// the traced stack's public stats, its flight-recorder rings and the
// CPU samples give the per-layer numbers; probes carries the harness
// probes' timings of single layers, which no workload changes. On the
// catalogue workload a pair is the pool at one worker and at GOMAXPROCS
// workers.
func measureLayers(sp *spanLog, w *workload, seed uint64, budget time.Duration, probes map[string]float64) result {
	r := result{Workload: w.name, Traced: true, GOMAXPROCS: w.gomaxprocs(true), WarmNs: w.warmNs,
		MeasureNs: w.measNs, Correct: true, Metrics: map[string]stat{}}
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for k, v := range probes {
		m[k] = v
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.gomaxprocs(true)))
	defer sp.begin("traced")()
	if err := w.layers(sp, seed, budget, &r, m); err != nil {
		r.fail("%v", err)
	}
	for k, v := range m {
		r.Metrics[k] = stat{Median: v, Q1: v, Q3: v, N: 1}
	}
	return r
}

func (w *workload) layers(sp *spanLog, seed uint64, budget time.Duration, r *result, m map[string]float64) error {
	if _, err := w.pass(sp, seed, passOpts{}); err != nil { // warm-up, discarded
		return fmt.Errorf("warm-up pass: %w", err)
	}
	untraced := passOpts{}
	if w.catalogue() {
		untraced.workers = 1
	}
	prof := newCPUProfile()
	var overhead, untracedRun []float64
	var last passResult // the most recent traced pass
	for start := time.Now(); r.Reps == 0 || time.Since(start) < budget; r.Reps++ {
		runtime.GC()
		u, err := w.pass(sp, seed, untraced)
		if err != nil {
			return fmt.Errorf("untraced pass: %w", err)
		}
		u.st = nil
		runtime.GC()
		var t passResult
		perr := prof.around(func() { t, err = w.pass(sp, seed, passOpts{traced: true}) })
		if err == nil {
			err = perr
		}
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		if t.digest != u.digest {
			r.fail("traced pass changed the virtual-time results (digest %s, untraced %s)", t.digest, u.digest)
		}
		overhead = append(overhead, 100*(t.runS/u.runS-1))
		untracedRun = append(untracedRun, u.runS)
		r.Attempted += t.pkts + t.failed
		r.Failed += t.failed
		r.Digest = t.digest
		last = t
	}
	for _, mod := range cpuModules {
		m[mod+".host_cpu_share"] = prof.share(mod)
	}
	m[bucketSched+"_cpu_share"] = prof.share(bucketSched)
	m[bucketGC+"_cpu_share"] = prof.share(bucketGC)
	own := summarize(untracedRun).Median

	if w.catalogue() {
		// The pair was Workers=1 against Workers=GOMAXPROCS.
		m["experiments.par_speedup"] = own / last.runS
		m["experiments.points_per_host_s"] = float64(last.points) / last.runS
		return nil
	}
	err := stackLayerMetrics(sp, w, &last, m)
	last.st = nil
	if err != nil {
		return err
	}

	// Set-up cost per connection, from one set-up-only pass.
	runtime.GC()
	s, err := w.pass(sp, seed, passOpts{setupOnly: true})
	if err != nil {
		return fmt.Errorf("set-up pass: %w", err)
	}
	conns := float64(s.st.Cfg.Connections)
	m["core.setup_bytes_per_conn"] = float64(s.allocBytes) / conns
	m["core.setup_allocs_per_conn"] = float64(s.mallocs) / conns
	s.st = nil

	if w.hostBackend() {
		return nil // no observers to cost, and real threads need their Ps
	}
	m["trace.host_overhead_pct"] = summarize(overhead).Median

	// What more Ps cost a single sim engine: one pass at the multi-P
	// setting against the median untraced pass at GOMAXPROCS=1.
	runtime.GOMAXPROCS(multiPs())
	runtime.GC()
	o, err := w.pass(sp, seed, passOpts{})
	runtime.GOMAXPROCS(w.gomaxprocs(true))
	if err != nil {
		return fmt.Errorf("gomaxprocs pass: %w", err)
	}
	m["sim.gomaxprocs_penalty"] = o.runS / own
	return nil
}

// flowTableLine matches the one steering counter ProfileReport prints
// that no structured accessor carries.
var flowTableLine = regexp.MustCompile(`flow table (\d+) hits / (\d+) misses`)

// stackLayerMetrics fills the per-layer metrics readable off a traced,
// completed stack.
func stackLayerMetrics(sp *spanLog, w *workload, t *passResult, m map[string]float64) error {
	st, res, cfg := t.st, t.res, t.st.Cfg
	end := sp.begin("Stack.Profile")
	pj := st.Profile(w.name, res)
	end()
	elapsed := float64(st.Eng.Now()) // virtual ns (wall ns on the host backend), whole run
	cpuNs := elapsed * float64(cfg.Procs)
	pkts := float64(t.pkts)
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	var wait, hold, acquires, contended int64
	for _, l := range pj.Locks {
		wait += l.WaitNs
		hold += l.HoldNs
		if l.Acquires > 0 {
			acquires += l.Acquires
			contended += l.Contended
		}
	}
	if cfg.Backend == sim.BackendHost {
		m["sim.host_lock_wait_share"] = res.LockWaitFrac
	} else {
		m["sim.state_lock_wait_share"] = res.LockWaitFrac
	}
	m["sim.lock_wait_share"] = float64(wait) / cpuNs
	m["sim.lock_contended_share"] = ratio(contended, acquires)
	m["sim.lock_hold_ns_per_pkt"] = float64(hold) / pkts

	if st.TCP != nil {
		ts := st.TCP.Stats()
		m["tcp.ooo_pct"] = 100 * ratio(ts.OOOSegsIn, ts.DataSegsIn)
		m["tcp.predict_hit_share"] = ratio(ts.Predicted, ts.SegsIn)
		m["tcp.rexmt_per_kpkt"] = 1e3 * float64(ts.Rexmt+ts.FastRexmt) / pkts
		if cfg.Side == core.SideRecv {
			m["tcp.acks_per_data_seg"] = ratio(ts.AcksOut, ts.DataSegsIn)
		} else {
			m["tcp.acks_per_data_seg"] = ratio(ts.AcksIn, t.pkts)
		}
	}

	ms := st.Alloc.Stats()
	m["msg.cache_hit_share"] = ratio(ms.CacheHits, ms.CacheHits+ms.CacheMisses)
	m["msg.arena_lock_wait_share"] = float64(st.Alloc.ArenaLockStats().WaitNs) / cpuNs

	maps := []*xmap.Map{st.FDDI.DemuxMap(), st.IP.DemuxMap()}
	if st.TCP != nil {
		maps = append(maps, st.TCP.DemuxMap())
	}
	if st.UDP != nil {
		maps = append(maps, st.UDP.DemuxMap())
	}
	var resolves, hits int64
	for _, dm := range maps {
		s := dm.Stats()
		resolves += s.Resolves
		hits += s.CacheHits
	}
	m["xmap.cache_hit_share"] = ratio(hits, resolves)

	if cfg.Steer.Enabled {
		end := sp.begin("Stack.ProfileReport")
		report := st.ProfileReport()
		end()
		if f := flowTableLine.FindStringSubmatch(report); f != nil {
			h, _ := strconv.ParseInt(f[1], 10, 64)
			miss, _ := strconv.ParseInt(f[2], 10, 64)
			m["steer.flow_hit_share"] = ratio(h, h+miss)
		}
		kpkt := float64(res.Packets) / 1e3 // the steer counters cover the measurement interval
		m["steer.evicts_per_kpkt"] = float64(res.FlowEvicts) / kpkt
		m["steer.repins_per_kpkt"] = float64(res.SteerMigrates) / kpkt
		m["steer.ring_drop_share"] = ratio(res.SteerDrops, res.Packets+res.SteerDrops)
		m["steer.imbalance_pct"] = res.ImbalancePct
		m["workload.sink_ooo_pct"] = res.OOOPct
		m["workload.sink_evicts_per_kpkt"] = float64(res.SinkEvicts) / kpkt
	}
	m["driver.batch_segs_per_frame"] = res.BatchSegsPerFrame

	if st.Rec == nil {
		return nil
	}
	m["trace.dropped_events"] = float64(pj.TraceDropped)
	if pj.E2E != nil {
		m["trace.e2e_p50_ns"] = float64(pj.E2E.P50)
		m["trace.e2e_p99_ns"] = float64(pj.E2E.P99)
	}

	// Self time: the rings hold the tail of the run, so the exact
	// nesting arithmetic runs on that window and is scaled to the whole
	// run by total layer residence, which the histograms have in full.
	self, window := layerSelfNs(st.Rec)
	var residence int64
	for _, l := range pj.Layers {
		residence += l.Residence.Sum
	}
	if window == 0 {
		return fmt.Errorf("traced pass recorded no layer spans")
	}
	scale := float64(residence) / float64(window)
	var sum float64
	for mod, ns := range self {
		if ns < 0 {
			return fmt.Errorf("layer %s: negative self time %d ns", mod, ns)
		}
		v := float64(ns) * scale / pkts
		m[mod+".self_ns_per_pkt"] = v
		sum += v
	}
	// The layers cannot hold a packet longer than the processors exist.
	if budget := cpuNs / pkts; sum > budget {
		return fmt.Errorf("layer self times sum to %.0f ns/pkt, more than the %.0f ns/pkt of processor time", sum, budget)
	}
	return nil
}

// layerSelfNs computes each protocol module's self time over the layer
// spans the flight-recorder rings still hold: a span's duration minus
// the spans nested directly inside it on the same processor (fddi
// encloses ip encloses the transport on the way up, the reverse on the
// way down, and an inline ack nests a whole send inside a receive). It
// also returns the window's total residence, the sum of all span
// durations, for scaling.
func layerSelfNs(rec *trace.Recorder) (self map[string]int64, window int64) {
	self = map[string]int64{}
	type open struct {
		mod string
		end int64
	}
	for p := 0; p < rec.Procs(); p++ {
		evs := rec.Events(p)
		if len(evs) == 0 {
			continue
		}
		// Events append when they end. If the ring wrapped, everything it
		// dropped ended before the first retained event did, so a span
		// that starts after that point has all its children retained.
		var cutoff int64
		if int64(len(evs)) == int64(trace.DefaultDepth) {
			cutoff = evs[0].TS + evs[0].Dur
		}
		var spans []trace.Event
		for _, e := range evs {
			if e.Kind == trace.EvLayer && e.TS >= cutoff {
				spans = append(spans, e)
			}
		}
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].TS != spans[j].TS {
				return spans[i].TS < spans[j].TS
			}
			return spans[i].Dur > spans[j].Dur
		})
		var stack []open
		for _, s := range spans {
			for len(stack) > 0 && s.TS >= stack[len(stack)-1].end {
				stack = stack[:len(stack)-1]
			}
			mod, _, _ := strings.Cut(s.Name, "-")
			end := s.TS + s.Dur
			if n := len(stack); n > 0 && end <= stack[n-1].end {
				self[stack[n-1].mod] -= s.Dur
			}
			self[mod] += s.Dur
			window += s.Dur
			stack = append(stack, open{mod, end})
		}
	}
	return self, window
}
