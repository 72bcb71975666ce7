package core

// Receive-side flow steering (Config.Steer): instead of the fixed
// conn==proc pump wiring, a dispatcher thread — the simulated NIC —
// produces the seeded open-loop workload, steers each arrival with the
// configured policy (internal/steer) onto a bounded per-processor
// dispatch ring, and one worker thread per processor shepherds the
// dispatched frames up the real FDDI/IP/UDP stack to the workload
// sink. A monitor thread samples ring depths in virtual time; under
// the rebalancing policy it migrates indirection buckets.

import (
	"errors"
	"fmt"

	"repro/internal/app"
	"repro/internal/driver"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/steer"
	"repro/internal/workload"
)

// validateSteer rejects steering configurations the engine cannot run
// and fills the subsystem defaults.
func validateSteer(cfg *Config) error {
	if !cfg.Steer.Enabled {
		return nil
	}
	if cfg.Proto != ProtoUDP || cfg.Side != SideRecv {
		return errors.New("core: Steer requires the UDP receive side")
	}
	if cfg.Strategy != StrategyPacket {
		return errors.New("core: Steer requires the packet-level strategy")
	}
	cfg.Steer = cfg.Steer.WithDefaults()
	// One lock kind per run: the Flow-Director buckets follow the
	// connection-state locks, whichever entry point built the config.
	cfg.Steer.LockKind = cfg.LockKind
	cfg.Workload = cfg.Workload.WithDefaults()
	if cfg.Workload.Seed == 0 {
		// Derive from the run seed so the per-run seeds (RunConfigs) vary the
		// workload while any single config stays bit-reproducible.
		cfg.Workload.Seed = cfg.Seed + 2
	}
	return nil
}

// buildSteer constructs the steering plumbing.
func (s *Stack) buildSteer() {
	cfg := &s.Cfg
	s.steerer = steer.New(cfg.Steer, cfg.Procs)
	s.steerGen = workload.NewGenerator(cfg.Workload, cfg.Connections)
	s.Sink = app.NewSteeredSink(cfg.Workload, cfg.Connections, cfg.Procs)
	s.steerQs = make([]*sim.Queue, cfg.Procs)
	for p := range s.steerQs {
		s.steerQs[p] = sim.NewQueue(fmt.Sprintf("steer%d", p), cfg.Steer.RingCapacity)
	}
	if cfg.Steer.Policy == steer.PolicyFlowDirector {
		// The ATR update: each delivery pins the flow to the
		// connection's (possibly just-migrated) application processor.
		s.Sink.Flows.Pin = func(t *sim.Thread, conn int, gen uint32, proc int) {
			s.steerer.Pin(t, steerFlowID(conn, gen), s.steerHash(conn, gen), proc)
		}
	}
}

// steerFlowID is the exact-match identity of a (possibly churned)
// connection flow.
func steerFlowID(conn int, gen uint32) uint64 {
	return uint64(conn)<<32 | uint64(gen)
}

// steerTuple is the 4-tuple the NIC hashes for connection conn at
// churn generation gen. Wire ports stay fixed (sessions are opened
// once at setup); churn re-keys only the steering identity, modelling
// a fresh ephemeral source port.
func steerTuple(conn int, gen uint32) steer.Tuple {
	return steer.Tuple{
		SrcIP:   [4]byte(driver.HostPeer),
		DstIP:   [4]byte(driver.HostLocal),
		SrcPort: driver.PeerPort(conn) + uint16(gen*4099),
		DstPort: driver.LocalPort(conn),
	}
}

// steerHash is the NIC's hash of connection conn's flow at churn
// generation gen.
func (s *Stack) steerHash(conn int, gen uint32) uint32 {
	return s.steerer.Hash(steerTuple(conn, gen))
}

// runSteer spawns the steering threads over the NIC src: one worker per
// processor, the dispatcher on virtual processor P (the NIC runs beside
// the CPUs, as hardware dispatch does), and the depth monitor on P+1.
// Both extra indices exist in the allocator and recorder, which size for
// procs+2.
func (s *Stack) runSteer(src *driver.UDPSource) {
	cfg := &s.Cfg
	for p := 0; p < cfg.Procs; p++ {
		p := p
		s.Eng.Spawn(fmt.Sprintf("steerw%d", p), p, func(t *sim.Thread) {
			s.steerWorker(t, p, src)
		})
	}
	s.Eng.Spawn("steer-nic", cfg.Procs, func(t *sim.Thread) { s.steerDispatch(t, src) })
	s.Eng.Spawn("steer-mon", cfg.Procs+1, s.steerMonitor)
}

// steerDispatch is the NIC thread: open-loop arrivals, frame
// production, coalescing, steering decision, ring enqueue. It holds at
// most one pending frame and folds each arrival that continues the
// pending flow's in-order run into it. Anything else — a different
// flow, a sequence discontinuity, the segment or byte caps, a head older
// than the flush timeout — flushes the pending frame through the
// steering decision onto a dispatch ring and starts a new one. A full
// ring drops the frame, as a real adaptor ring would.
func (s *Stack) steerDispatch(t *sim.Thread, src *driver.UDPSource) {
	bc, payload := s.Cfg.Batch, src.PayloadLen()
	var (
		pend      *msg.Message
		pendConn  int
		pendGen   uint32
		pendNext  int64 // sequence that continues the pending run
		pendStart int64 // virtual time the head was produced
	)
	flush := func(reason string) {
		if pend == nil {
			return
		}
		m := pend
		pend = nil
		driver.NoteFlush(t, bc, reason, m)
		s.noteBatch(t, m.SegCount())
		h := s.steerHash(pendConn, pendGen)
		p := s.steerer.Decide(t, steerFlowID(pendConn, pendGen), h)
		if !s.steerQs[p].TryEnqueue(t, m) {
			m.Free(t)
			s.steerDrops++
		}
	}
	for !s.stop.Get() {
		a := s.steerGen.Next()
		t.SleepUntil(a.At)
		if s.stop.Get() {
			break
		}
		if pend != nil {
			switch {
			case a.Conn != pendConn || a.Gen != pendGen:
				flush("flow")
			case a.Seq != pendNext:
				flush("seq")
			case a.At-pendStart > msg.BatchFlushNs:
				flush("timeout")
			case !driver.Fits(pend, payload):
				flush("maxbytes")
			}
		}
		if pend == nil {
			m, err := src.Arrive(t, a, src.BatchGrow(bc))
			if err != nil {
				s.fail(fmt.Errorf("core: steer dispatch: %w", err))
				return
			}
			pend = m
			pendConn, pendGen = a.Conn, a.Gen
			pendStart = t.Now()
		} else {
			d, err := src.Arrive(t, a, 0)
			if err != nil {
				pend.Free(t)
				s.fail(fmt.Errorf("core: steer dispatch: %w", err))
				return
			}
			if err := driver.MergeUDP(t, pend, d); err != nil {
				d.Free(t)
				pend.Free(t)
				s.fail(fmt.Errorf("core: steer dispatch merge: %w", err))
				return
			}
		}
		pendNext = a.Seq + 1
		if pend.SegCount() >= bc.MaxSegs {
			// With batching off that is every fresh head: steered and
			// enqueued the instant it is produced, as by a NIC that
			// does not coalesce.
			flush("maxsegs")
		}
	}
	flush("stop")
}

// steerWorker is processor p's protocol thread: it drains p's dispatch
// ring and shepherds each frame up the stack (thread-per-packet above
// the dispatch point). A wakeup drains up to MaxSegs frames before
// blocking again, amortizing the wakeup across the ring's backlog (one
// frame per wakeup when batching is off).
func (s *Stack) steerWorker(t *sim.Thread, p int, src *driver.UDPSource) {
	maxDrain := s.Cfg.Batch.MaxSegs
	for {
		item, ok := s.steerQs[p].Dequeue(t)
		if !ok {
			return
		}
		for n := 1; ; n++ {
			if err := src.Inject(t, item.(*msg.Message)); err != nil {
				// Fault-injected frames may fail to parse; that is the
				// fault wire doing its job. A refused delivery, or
				// anything else, ends the run.
				if errors.Is(err, app.ErrDelivery) || !s.Cfg.Faults.Enabled() && !s.stop.Get() {
					s.fail(fmt.Errorf("core: steer worker %d: %w", p, err))
					return
				}
			}
			if n >= maxDrain {
				break
			}
			next, ok2 := s.steerQs[p].TryDequeue(t)
			if !ok2 {
				break
			}
			item = next
		}
	}
}

// steerMonitor samples ring depths every rebalance period; under
// PolicyRebalance the sample may migrate a bucket.
func (s *Stack) steerMonitor(t *sim.Thread) {
	period := s.Cfg.Steer.RebalancePeriodNs
	depths := make([]int, s.Cfg.Procs)
	for {
		t.Sleep(period)
		if s.stop.Get() {
			return
		}
		for p := range depths {
			depths[p] = s.steerQs[p].Len()
		}
		s.steerer.Sample(t, depths)
	}
}

// steerSnapshot captures the steered shape's cumulative counters:
// ordering at the sink, the Flow-Director bucket lock wait and
// the steering metrics. The peak queue-imbalance watermark resets at
// each snapshot, scoping it to the interval between snapshots.
func (s *Stack) steerSnapshot() snap {
	sn := snap{data: s.Sink.Packets(), lockWait: s.steerer.LockWaitNs(), stats: s.steerer.Stats(), drops: s.steerDrops}
	sn.ooo, sn.sinkEvicts, sn.perProc = s.Sink.Flows.Counts()
	s.steerer.ResetPeak()
	return sn
}

// applySteerMetrics folds the measurement-interval deltas into the run
// result.
func applySteerMetrics(res *RunResult, a, b snap) {
	if a.perProc == nil || b.perProc == nil {
		return
	}
	var max, sum int64
	for p := range b.perProc {
		d := b.perProc[p] - a.perProc[p]
		sum += d
		if d > max {
			max = d
		}
	}
	if mean := float64(sum) / float64(len(b.perProc)); mean > 0 {
		res.ImbalancePct = 100 * (float64(max) - mean) / mean
	}
	res.PeakQueuePct = b.stats.PeakQueuePct
	res.SteerMigrates = (b.stats.Moves + b.stats.Repins) - (a.stats.Moves + a.stats.Repins)
	res.FlowEvicts = b.stats.Evictions - a.stats.Evictions
	res.SteerDrops = b.drops - a.drops
	res.SinkEvicts = b.sinkEvicts - a.sinkEvicts
}
