package core

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// Golden calibration guard: these exact values pin the cost model and
// simulation down to the nanosecond. They are fully deterministic —
// the engine serializes execution, all randomness is seeded xorshift,
// and no Go map iteration influences results — so any drift means the
// cost model or a protocol path changed. If a change is intentional,
// regenerate the constants (the expected shapes in EXPERIMENTS.md must
// still hold) and update them here deliberately.
func TestGoldenCalibration(t *testing.T) {
	const (
		warmup  = 300_000_000
		measure = 500_000_000
	)
	cases := []struct {
		name     string
		proto    Proto
		side     Side
		procs    int
		kind     sim.LockKind
		wantMbps float64
		wantOOO  float64
	}{
		{"udp-send-4p", ProtoUDP, SideSend, 4, sim.KindMutex, 463.273984, 0},
		{"tcp-recv-8p-mutex", ProtoTCP, SideRecv, 8, sim.KindMutex, 235.601920, 66.861273},
		{"tcp-recv-8p-mcs", ProtoTCP, SideRecv, 8, sim.KindMCS, 325.779456, 13.555913},
		{"tcp-send-4p", ProtoTCP, SideSend, 4, sim.KindMutex, 190.513152, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Proto = tc.proto
			cfg.Side = tc.side
			cfg.Procs = tc.procs
			cfg.LockKind = tc.kind
			st, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := st.Run(warmup, measure)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(r.Mbps-tc.wantMbps) > 1e-6 {
				t.Errorf("Mbps = %.6f, golden %.6f — the cost model or a protocol path changed",
					r.Mbps, tc.wantMbps)
			}
			if math.Abs(r.OOOPct-tc.wantOOO) > 1e-6 {
				t.Errorf("OOO%% = %.6f, golden %.6f", r.OOOPct, tc.wantOOO)
			}
		})
	}
}
