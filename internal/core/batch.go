package core

// Receive-side GRO batching (Config.Batch): the pump loops and the
// steering dispatcher coalesce consecutive same-flow in-order segments
// into one merged frame (internal/driver merge helpers, segment count
// on the head view) so the protocol layers — TCP's connection state
// lock above all — run once per batch instead of once per packet.

import (
	"errors"
	"fmt"

	"repro/internal/driver"
	"repro/internal/msg"
	"repro/internal/sim"
)

// validateBatch rejects batching configurations the engine cannot run
// and fills the subsystem defaults.
func validateBatch(cfg *Config) error {
	if !cfg.Batch.Enabled {
		return nil
	}
	if cfg.Side != SideRecv {
		return errors.New("core: Batch requires the receive side")
	}
	if cfg.Strategy != StrategyPacket {
		return errors.New("core: Batch requires the packet-level strategy")
	}
	cfg.Batch = cfg.Batch.WithDefaults()
	return nil
}

// noteBatch accounts one injected batch (engine-serialized counters).
func (s *Stack) noteBatch(segs int) {
	if segs <= 0 {
		return
	}
	s.batchFrames++
	s.batchSegs += int64(segs)
}

// steerDispatchBatch is the coalescing NIC thread: it holds at most one
// pending frame and folds each arrival that continues the pending
// flow's in-order run into it. Anything else — a different flow, a
// sequence discontinuity, the segment or byte caps, a head older than
// the flush timeout — flushes the pending frame through the steering
// decision onto a dispatch ring and starts a new one.
func (s *Stack) steerDispatchBatch(t *sim.Thread) {
	bc := s.Cfg.Batch
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
		t.Engine().Rec.BatchFlush(t.Proc, t.Now(), reason, int64(m.SegCount()), int64(m.Len()))
		s.noteBatch(m.SegCount())
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
		payload := s.steerSrc.PayloadLen()
		if pend != nil {
			switch {
			case a.Conn != pendConn || a.Gen != pendGen:
				flush("flow")
			case a.Seq != pendNext:
				flush("seq")
			case a.At-pendStart > bc.FlushTimeoutNs:
				flush("timeout")
			case pend.Len()+payload > bc.MaxBytes || pend.Tailroom() < payload:
				flush("maxbytes")
			}
		}
		if pend == nil {
			m, err := s.steerSrc.ProduceGrow(t, a, s.steerSrc.BatchGrow(bc))
			if err != nil {
				s.fail(fmt.Errorf("core: steer dispatch: %w", err))
				return
			}
			pend = m
			pendConn, pendGen = a.Conn, a.Gen
			pendNext = a.Seq + 1
			pendStart = t.Now()
			continue
		}
		d, err := s.steerSrc.Produce(t, a)
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
		pendNext = a.Seq + 1
		if pend.SegCount() >= bc.MaxSegs {
			flush("maxsegs")
		}
	}
	flush("stop")
}
