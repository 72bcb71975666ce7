package core

// Receive-side GRO batching (Config.Batch): the pump loops and the
// steering dispatcher coalesce consecutive same-flow in-order segments
// into one merged frame (internal/driver merge helpers, segment count
// on the head view) so the protocol layers — TCP's connection state
// lock above all — run once per batch instead of once per packet.

import (
	"errors"

	"repro/internal/msg"
	"repro/internal/sim"
)

// validateBatch rejects batching configurations the engine cannot run
// and fills the subsystem defaults. Batching off, or on with nothing to
// merge, becomes a batch of one: the receive pumps and the NIC have no
// other path, and with MaxSegs 1 theirs is the paper's per-packet one.
func validateBatch(cfg *Config) error {
	if cfg.Batch.Enabled {
		if cfg.Side != SideRecv {
			return errors.New("core: Batch requires the receive side")
		}
		if cfg.Strategy != StrategyPacket {
			return errors.New("core: Batch requires the packet-level strategy")
		}
	}
	if !cfg.Batch.Active() {
		cfg.Batch = msg.BatchConfig{MaxSegs: 1}
	}
	cfg.Batch = cfg.Batch.WithDefaults()
	return nil
}

// noteBatch accounts one injected batch. A batch of one is not
// accounted: an unbatched run reports no batching and its pumps do no
// work here. The counters are statistics (Thread.Count), bumped by
// concurrent pumps on the host backend and read with atomic loads.
func (s *Stack) noteBatch(t *sim.Thread, segs int) {
	if segs <= 0 || s.Cfg.Batch.MaxSegs <= 1 {
		return
	}
	t.Count(&s.batchFrames, 1)
	t.Count(&s.batchSegs, int64(segs))
}
