package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/steer"
)

// hostConfig builds a small host-backend configuration.
func hostConfig(proto Proto, side Side, kind sim.LockKind, procs, conns int) Config {
	cfg := DefaultConfig()
	cfg.Proto = proto
	cfg.Side = side
	cfg.LockKind = kind
	cfg.Procs = procs
	cfg.Connections = conns
	cfg.Backend = sim.BackendHost
	return cfg
}

// TestHostBackendSmoke: every supported shape completes a short real-
// time run on real goroutines and moves traffic. Windows are wall-clock
// here, so they are kept short; throughput numbers are nondeterministic
// and only checked for being nonzero.
func TestHostBackendSmoke(t *testing.T) {
	const (
		warmup  = 2_000_000  // 2 ms wall
		measure = 20_000_000 // 20 ms wall
	)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"udp-send", hostConfig(ProtoUDP, SideSend, sim.KindMutex, 2, 1)},
		{"udp-recv", hostConfig(ProtoUDP, SideRecv, sim.KindMutex, 2, 1)},
		{"tcp-send", hostConfig(ProtoTCP, SideSend, sim.KindMutex, 2, 1)},
		{"tcp-recv-mutex", hostConfig(ProtoTCP, SideRecv, sim.KindMutex, 2, 1)},
		{"tcp-recv-mcs", hostConfig(ProtoTCP, SideRecv, sim.KindMCS, 2, 1)},
		{"tcp-recv-ticket", hostConfig(ProtoTCP, SideRecv, sim.KindTicket, 2, 1)},
		{"tcp-recv-conn-per-proc", hostConfig(ProtoTCP, SideRecv, sim.KindMCS, 2, 2)},
		{"tcp-recv-ticketed", func() Config {
			cfg := hostConfig(ProtoTCP, SideRecv, sim.KindMutex, 2, 1)
			cfg.Ticketing = true
			return cfg
		}()},
		// The timer wheel and the connection free list on real
		// goroutines: 2 046 connections only ever tick.
		{"tcp-recv-2048-idle", func() Config {
			cfg := hostConfig(ProtoTCP, SideRecv, sim.KindMutex, 2, 2048)
			cfg.ActiveConns = 2
			return cfg
		}()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Real-time runs on an oversubscribed (or race-instrumented)
			// machine can stall for a whole measurement window when the
			// scheduler starves the one goroutine carrying the head-of-
			// line segment; retry a few times before calling it broken.
			var last RunResult
			for attempt := 0; attempt < 3; attempt++ {
				st, err := Build(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !st.Eng.IsHost() {
					t.Fatal("Backend=host built a sim engine")
				}
				last, err = st.Run(warmup, measure)
				if err != nil {
					t.Fatal(err)
				}
				if last.Mbps > 0 {
					return
				}
			}
			t.Errorf("no traffic moved in 3 attempts: %+v", last)
		})
	}
}

// TestHostBackendRejects: the determinism-dependent knobs must fail
// Build loudly instead of producing silently wrong wall-clock numbers,
// and the error must name the knob that was refused.
func TestHostBackendRejects(t *testing.T) {
	cases := []struct {
		name, want string
		mutate     func(*Config)
	}{
		{"strategy-connection", "-strategy", func(c *Config) {
			c.Proto, c.Side = ProtoTCP, SideRecv
			c.Strategy = StrategyConnection
			c.Connections = 2
		}},
		{"strategy-layered", "-strategy", func(c *Config) {
			c.Proto, c.Side = ProtoTCP, SideRecv
			c.Strategy = StrategyLayered
			c.Procs = 3
		}},
		{"steer", "-steer", func(c *Config) {
			c.Side = SideRecv
			c.Steer = steer.Config{Enabled: true}
		}},
		{"faults", "-drop", func(c *Config) {
			c.Proto, c.Side = ProtoTCP, SideRecv
			c.Faults = driver.FaultConfig{Down: driver.FaultRates{Drop: 0.01}}
		}},
		{"trace", "packet flight recorder", func(c *Config) { c.Trace = true }},
		{"telemetry", "-sample", func(c *Config) { c.SamplePeriodNs = 1_000_000 }},
		{"unwired", "-wired", func(c *Config) { c.Wired = false }},
		{"map-unlocked", "-maplock", func(c *Config) { c.MapLocking = false }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Backend = sim.BackendHost
		tc.mutate(&cfg)
		_, err := Build(cfg)
		if err == nil {
			t.Errorf("%s: Build accepted an unsupported host configuration", tc.name)
		} else if !strings.Contains(err.Error(), "host backend cannot run "+tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
		cfg.Backend = sim.BackendSim
		if _, err := Build(cfg); err != nil && strings.Contains(err.Error(), "host backend") {
			t.Errorf("%s: the sim backend refused it too: %v", tc.name, err)
		}
	}
}

// TestHostBackendRunsMsgCache: MsgCache means the same on both
// substrates. On real goroutines the per-processor caches serve nearly
// every buffer where each processor frees what it allocates, so the
// malloc arena's lock is taken about never; with the cache off every
// buffer goes through the arena, taking its lock once to allocate and
// once to free. Either way every buffer allocated is freed by the end
// of Run.
//
// One shared connection is held to less: a segment one pump queues out
// of order is freed by whichever pump delivers it, so nodes drift from
// one processor's cache to the other's, spill at the cache depth and
// come back as misses: 0.03 to 6 % of frees over 100 ms, in bursts, more
// under -race.
func TestHostBackendRunsMsgCache(t *testing.T) {
	const (
		warmup  = 2_000_000   // 2 ms wall
		measure = 100_000_000 // 100 ms wall: enough packets under -race that cold misses stay under 1 %
	)
	shapes := []struct {
		name string
		cfg  Config
		// minHit is the cache hit share the run must reach; strict
		// shapes also keep arena lock acquires within 1 % of frees.
		minHit float64
		strict bool
	}{
		{"tcp-recv-2p", hostConfig(ProtoTCP, SideRecv, sim.KindMCS, 2, 2), 0.99, true},
		{"udp-recv-1p", hostConfig(ProtoUDP, SideRecv, sim.KindMutex, 1, 1), 0.99, true},
		{"tcp-recv-2p-shared", hostConfig(ProtoTCP, SideRecv, sim.KindMutex, 2, 1), 0.8, false},
	}
	for _, sh := range shapes {
		for _, cache := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/msgcache=%v", sh.name, cache), func(t *testing.T) {
				cfg := sh.cfg
				cfg.MsgCache = cache
				st, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if st.Cfg.MsgCache != cache {
					t.Fatalf("Build changed MsgCache to %v", st.Cfg.MsgCache)
				}
				if _, err := st.Run(warmup, measure); err != nil {
					t.Fatal(err)
				}
				s, arena := st.Alloc.Stats(), st.Alloc.ArenaLockStats().Acquires
				t.Logf("%+v, arena lock acquires %d", s, arena)
				if s.Frees == 0 {
					t.Fatal("no buffer was freed")
				}
				if !cache {
					if s.CacheHits != 0 || s.CacheMisses != 0 || arena != 2*s.Frees {
						t.Errorf("cache off: %d hits, %d misses, %d arena lock acquires for %d frees; want 0, 0 and %d",
							s.CacheHits, s.CacheMisses, arena, s.Frees, 2*s.Frees)
					}
					return
				}
				if s.Frees != s.CacheHits+s.CacheMisses {
					t.Errorf("%d buffers allocated, %d freed", s.CacheHits+s.CacheMisses, s.Frees)
				}
				if share := float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses); share < sh.minHit {
					t.Errorf("cache hit share %.4f, want >= %v", share, sh.minHit)
				}
				if sh.strict && arena*100 > s.Frees {
					t.Errorf("%d arena lock acquires for %d frees, want at most 1 %%", arena, s.Frees)
				}
			})
		}
	}
}

// TestHostBackendTCPStatsMatchSink: TCP's sharded statistics, bumped by
// two pumps on real goroutines and summed after the run, count exactly
// what the application sink counted under its lock: one delivery per
// packet, and the same bytes.
func TestHostBackendTCPStatsMatchSink(t *testing.T) {
	st, err := Build(hostConfig(ProtoTCP, SideRecv, sim.KindMutex, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(2_000_000, 50_000_000); err != nil { // 2 ms, 50 ms wall
		t.Fatal(err)
	}
	ts := st.TCP.Stats()
	if ts.Delivered == 0 || ts.Delivered != st.Sink.Packets() || ts.BytesIn != st.Sink.Bytes() {
		t.Errorf("TCP counted %d deliveries of %d bytes, the sink %d packets of %d bytes",
			ts.Delivered, ts.BytesIn, st.Sink.Packets(), st.Sink.Bytes())
	}
}

// TestHostBackendBatchAgrees: receive batching runs on real goroutines.
// TCP and UDP receive of 1 KB packets at 2 procs with MaxSegs 8: frames
// coalesce, and what the transport counted matches what the sink
// counted. TCP's bytes in equal the sink's bytes; every UDP frame
// injected is one UDP delivery, and every wire segment those frames
// carried is one sink packet.
func TestHostBackendBatchAgrees(t *testing.T) {
	for _, proto := range []Proto{ProtoTCP, ProtoUDP} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := hostConfig(proto, SideRecv, sim.KindMutex, 2, 1)
			cfg.PacketSize = 1024
			cfg.Batch = msg.BatchConfig{Enabled: true, MaxSegs: 8}
			st, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := st.Run(2_000_000, 50_000_000) // 2 ms, 50 ms wall
			if err != nil {
				t.Fatal(err)
			}
			if res.BatchSegsPerFrame <= 1 {
				t.Errorf("%.2f segs/frame (%d segments in %d frames), want > 1",
					res.BatchSegsPerFrame, res.BatchSegs, res.BatchFrames)
			}
			frames, segs := st.batchFrames, st.batchSegs
			if proto == ProtoTCP {
				ts := st.TCP.Stats()
				if ts.BytesIn == 0 || ts.BytesIn != st.Sink.Bytes() {
					t.Errorf("TCP counted %d bytes in, the sink %d", ts.BytesIn, st.Sink.Bytes())
				}
				return
			}
			if us := st.UDP.Stats(); us.Delivered == 0 || us.Delivered != frames || st.Sink.Packets() != segs {
				t.Errorf("%d frames of %d segments injected; UDP delivered %d, the sink counted %d packets",
					frames, segs, us.Delivered, st.Sink.Packets())
			}
		})
	}
}

// TestBackendSimIdentity pins the refactor's compatibility contract:
// setting Backend to BackendSim explicitly is the seed build — same
// engine, same validation path, bit-identical results — across the
// representative shapes, including the steered and batched subsystems
// host mode rejects.
func TestBackendSimIdentity(t *testing.T) {
	shapes := map[string]Config{
		"udp-send": func() Config {
			cfg := DefaultConfig()
			cfg.Procs = 4
			return cfg
		}(),
		"tcp-recv": func() Config {
			cfg := DefaultConfig()
			cfg.Proto, cfg.Side = ProtoTCP, SideRecv
			cfg.Procs = 4
			cfg.LockKind = sim.KindMCS
			return cfg
		}(),
		"steered": steeredConfig(steer.PolicyFlowDirector),
		"batched": batchTCPRecv(8),
	}
	for name, base := range shapes {
		explicit := base
		explicit.Backend = sim.BackendSim
		a, b := runOne(t, base), runOne(t, explicit)
		if a != b {
			t.Errorf("%s: explicit Backend=sim diverged from the default:\ndefault:  %+v\nexplicit: %+v", name, a, b)
		}
	}
}
