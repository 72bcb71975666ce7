// Package hostbench measures how fast the simulator itself runs on the
// host — wall-clock nanoseconds and heap allocations, not virtual time.
// It produces the machine-readable BENCH_sim.json artifact that every
// performance PR compares before/after, and the ratchet that CI applies
// against the committed baseline.
//
// Two kinds of entries:
//
//   - Micros: testing.Benchmark-driven microbenchmarks of the engine
//     hot paths (scheduling handoff, thread spawn/teardown, message
//     alloc/free and clone/free). These are advisory in the ratchet —
//     they localize a regression but don't fail CI, because sub-100ns
//     numbers are too noisy across runner generations.
//   - Sweeps: a fixed experiment workload matrix timed end to end at
//     Workers=1 and Workers=GOMAXPROCS, reported as points-per-second.
//     Sweep wall time is what the ratchet enforces.
package hostbench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/chksum"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/xkernel"
	"repro/internal/xmap"
)

// Schema identifies the report format.
const Schema = "parnet-hostbench/v1"

// Micro is one microbenchmark measurement.
type Micro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Ops         int     `json:"ops"`
}

// Sweep is one timed experiment-matrix run.
type Sweep struct {
	Name         string  `json:"name"`
	Workers      int     `json:"workers"` // 0 means GOMAXPROCS
	Points       int     `json:"points"`
	WallMs       float64 `json:"wall_ms"`
	PointsPerSec float64 `json:"points_per_sec"`
}

// Report is the BENCH_sim.json payload.
type Report struct {
	Schema     string  `json:"schema"`
	GoVersion  string  `json:"go_version"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Micros     []Micro `json:"micros"`
	Sweeps     []Sweep `json:"sweeps"`
}

// MicroSpec names one registered microbenchmark body.
type MicroSpec struct {
	Name string
	Fn   func(b *testing.B)
}

// MicroBenchmarks returns the registered microbenchmark bodies, for use
// both here (via testing.Benchmark) and from the BenchmarkHost* suite.
func MicroBenchmarks() []MicroSpec {
	return []MicroSpec{
		{"engine-handoff", benchEngineHandoff},
		{"engine-sync-fastpath-8t", benchEngineSyncFastPath8},
		{"engine-handoff-pingpong", benchEngineHandoffPingPong},
		{"engine-spawn", benchEngineSpawn},
		{"engine-rununtil-drain", benchRunUntilDrain},
		{"lock-contended-mutex-4t", benchContendedMutex},
		{"lock-contended-mcs-4t", benchContendedMCS},
		{"chksum-sum-20b", benchChksumSum20},
		{"chksum-sum-4k", benchChksumSum4K},
		{"msg-alloc-free", benchMsgAllocFree},
		{"msg-clone-free", benchMsgCloneFree},
		{"msg-merge-absorb", benchMsgMergeAbsorb},
		{"tcp-timer-tick-scan-16k", benchTCPTickScan16k},
		{"tcp-timer-tick-wheel-16k", benchTCPTickWheel16k},
		{"tcp-timer-tick-wheel-64k", benchTCPTickWheel64k},
		{"tcp-fasttimo-noalloc", benchTCPFastTimoNoalloc},
		{"tcb-pool-recycle", benchTCBPoolRecycle},
		{"xmap-resolve-100k", benchXmapResolve100k},
	}
}

// benchEngineHandoff: one thread rescheduling itself — the fast path
// where the minimum-clock thread is the one already running.
func benchEngineHandoff(b *testing.B) {
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	e.Spawn("t", 0, func(th *sim.Thread) {
		for i := 0; i < b.N; i++ {
			th.Charge(10)
			th.Sync()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// benchEngineSyncFastPath8: the same fast path with seven other threads
// runnable at later clocks — the shape of a packet's uncontended Syncs
// on an 8-processor run. engine-handoff's heap is empty, which hides
// what a push and a pop through three heap levels used to cost here.
func benchEngineSyncFastPath8(b *testing.B) {
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	e.Spawn("hot", 0, func(th *sim.Thread) {
		for i := 0; i < b.N; i++ {
			th.Charge(10)
			th.Sync()
		}
	})
	for i := 1; i < 8; i++ {
		e.Spawn(fmt.Sprintf("t%d", i), i, func(th *sim.Thread) {
			th.SleepUntil(1<<60 + int64(th.Proc))
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// benchEngineHandoffPingPong: two threads in lockstep, so every
// scheduling decision is a full handoff — the yielding thread's
// coroutine switches back to the driver, which switches into the other.
func benchEngineHandoffPingPong(b *testing.B) {
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	per := b.N/2 + 1
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("t%d", i), i, func(th *sim.Thread) {
			for j := 0; j < per; j++ {
				th.Charge(10)
				th.Sync()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// benchContendedLock: four threads taking turns on one simulated lock
// whose hold time exceeds their think time, so nearly every acquire
// blocks and every release wakes a waiter — the shared-connection TCP
// state lock's shape.
func benchContendedLock(b *testing.B, l sim.Locker) {
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	per := b.N/4 + 1
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("t%d", i), i, func(th *sim.Thread) {
			for j := 0; j < per; j++ {
				l.Acquire(th)
				th.Charge(5000)
				l.Release(th)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func benchContendedMutex(b *testing.B) { benchContendedLock(b, &sim.Mutex{Name: "m"}) }
func benchContendedMCS(b *testing.B)   { benchContendedLock(b, &sim.MCSLock{Name: "m"}) }

// benchEngineSpawn: a chain of one-shot threads, each spawning its
// successor — after the first link every Spawn reuses a pooled struct
// and its parked coroutine.
func benchEngineSpawn(b *testing.B) {
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	var chain func(i int) func(*sim.Thread)
	chain = func(i int) func(*sim.Thread) {
		return func(th *sim.Thread) {
			if i < b.N {
				e.Spawn("t", 0, chain(i+1))
			}
		}
	}
	e.Spawn("t", 0, chain(1))
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// benchRunUntilDrain: the truncated-run lifecycle — spawn, run to a
// virtual-time limit, drain the parked threads.
func benchRunUntilDrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.New(cost.NewModel(cost.Challenge100), 1)
		for p := 0; p < 4; p++ {
			e.Spawn(fmt.Sprintf("t%d", p), p, func(th *sim.Thread) {
				for {
					th.Charge(100)
					th.Sync()
				}
			})
		}
		e.RunUntil(10_000)
		e.Drain()
	}
}

// benchChksumSum: the Internet checksum over an IP header (20 bytes:
// call overhead and the tail loop) and over a 4 KB segment (the wide
// kernel) — what every simulated packet pays for real on the host.
func benchChksumSum(b *testing.B, n int) {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chksumSink += chksum.Sum(data)
	}
}

// chksumSink keeps benchChksumSum's calls from being optimized away.
var chksumSink uint16

func benchChksumSum20(b *testing.B) { benchChksumSum(b, 20) }
func benchChksumSum4K(b *testing.B) { benchChksumSum(b, 4096) }

func benchMsgAllocFree(b *testing.B) {
	a := msg.NewAllocator(msg.DefaultConfig(4))
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	e.Spawn("t", 0, func(th *sim.Thread) {
		for i := 0; i < b.N; i++ {
			m, err := a.New(th, 4096, msg.Headroom)
			if err != nil {
				b.Error(err)
				return
			}
			m.Free(th)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func benchMsgCloneFree(b *testing.B) {
	a := msg.NewAllocator(msg.DefaultConfig(4))
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	e.Spawn("t", 0, func(th *sim.Thread) {
		m, _ := a.New(th, 4096, msg.Headroom)
		for i := 0; i < b.N; i++ {
			c := m.Clone(th)
			c.Free(th)
		}
		m.Free(th)
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// benchMsgMergeAbsorb: the GRO merge hot path — a head frame with
// grow-room absorbing 1KB donor segments. In steady state every head
// and donor comes from the per-processor free lists and the merge is a
// copy into existing tail space, so the path must be 0 host allocs/op.
func benchMsgMergeAbsorb(b *testing.B) {
	a := msg.NewAllocator(msg.DefaultConfig(4))
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	e.Spawn("t", 0, func(th *sim.Thread) {
		const seg = 1024
		const grow = 6 * seg
		newHead := func() *msg.Message {
			h, err := a.New(th, seg+grow, msg.Headroom)
			if err != nil {
				b.Error(err)
				return nil
			}
			if err := h.TrimBack(th, grow); err != nil {
				b.Error(err)
				h.Free(th)
				return nil
			}
			return h
		}
		head := newHead()
		if head == nil {
			return
		}
		for i := 0; i < b.N; i++ {
			if head.Tailroom() < seg {
				head.Free(th)
				if head = newHead(); head == nil {
					return
				}
			}
			d, err := a.New(th, seg, msg.Headroom)
			if err != nil {
				b.Error(err)
				head.Free(th)
				return
			}
			if err := head.Absorb(th, d); err != nil {
				b.Error(err)
				d.Free(th)
				head.Free(th)
				return
			}
		}
		head.Free(th)
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// benchTCPTick builds n idle established connections and times one slow
// heartbeat per op under the selected timer architecture. The scan walks
// every connection each heartbeat (ns/op grows with n); the wheel visits
// only expiring timers, so ns/op must stay flat as the idle population
// quadruples — the O(expiring) property the ext-scale experiment relies
// on. Setup (binding n connection blocks) runs in a first engine pass,
// outside the timed region.
func benchTCPTick(b *testing.B, n int, wheel bool) {
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	a := msg.NewAllocator(msg.DefaultConfig(1))
	cfg := tcp.DefaultConfig()
	cfg.Checksum = tcp.ChecksumOff
	cfg.TimerWheel = wheel
	cfg.Buckets = n
	var p *tcp.Protocol
	e.Spawn("setup", 0, func(th *sim.Thread) {
		p, _ = tcp.NewBench(th, cfg, a, n)
	})
	e.Run()
	e.Spawn("tick", 0, func(th *sim.Thread) {
		for i := 0; i < b.N; i++ {
			p.BenchSlowTick(th)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func benchTCPTickScan16k(b *testing.B)  { benchTCPTick(b, 16384, false) }
func benchTCPTickWheel16k(b *testing.B) { benchTCPTick(b, 16384, true) }
func benchTCPTickWheel64k(b *testing.B) { benchTCPTick(b, 65536, true) }

// benchTCPFastTimoNoalloc: the delayed-ack flush with acks actually
// pending. The flush list is protocol-owned scratch and the pure acks
// recycle through the message allocator, so the steady state must be
// 0 host allocs/op (TestFastTimoZeroAlloc asserts it; the ratchet warns
// if it regresses).
func benchTCPFastTimoNoalloc(b *testing.B) {
	const conns = 1024
	const pending = 32
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	a := msg.NewAllocator(msg.DefaultConfig(1))
	cfg := tcp.DefaultConfig()
	cfg.Checksum = tcp.ChecksumOff
	cfg.Buckets = conns
	var p *tcp.Protocol
	var tcbs []*tcp.TCB
	e.Spawn("setup", 0, func(th *sim.Thread) {
		p, tcbs = tcp.NewBench(th, cfg, a, conns)
	})
	e.Run()
	e.Spawn("tick", 0, func(th *sim.Thread) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < pending; j++ {
				tcbs[(i*pending+j)%conns].BenchMarkDelack(th)
			}
			p.BenchFastTick(th)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// benchTCBPoolRecycle: connection-block churn through the free list —
// one allocate/release cycle per op, so after the first op every block
// comes back recycled with its queue capacities intact. The steady
// state is one small alloc/op: each incarnation gets a fresh state lock
// so per-connection contention stats never leak between connections.
func benchTCBPoolRecycle(b *testing.B) {
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	a := msg.NewAllocator(msg.DefaultConfig(1))
	cfg := tcp.DefaultConfig()
	cfg.Checksum = tcp.ChecksumOff
	cfg.TimerWheel = true
	cfg.PoolTCBs = true
	var p *tcp.Protocol
	e.Spawn("setup", 0, func(th *sim.Thread) {
		p, _ = tcp.NewBench(th, cfg, a, 0)
	})
	e.Run()
	part := xkernel.Part{
		LocalIP:    xkernel.IPAddr{10, 0, 0, 1},
		RemoteIP:   xkernel.IPAddr{10, 0, 0, 2},
		LocalPort:  1000,
		RemotePort: 2000,
	}
	e.Spawn("churn", 0, func(th *sim.Thread) {
		for i := 0; i < b.N; i++ {
			tcb := p.BenchNewTCB(part)
			p.BenchRelease(th, tcb)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// benchXmapResolve100k: demux lookups against a 100k-entry map whose
// bucket array started at the 64-bucket x-kernel default and auto-grew —
// the host-side chain-walk cost the Buckets knob and load-factor growth
// keep bounded.
func benchXmapResolve100k(b *testing.B) {
	const n = 100_000
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	m := xmap.New(64, sim.KindMutex, "bench-resolve")
	e.Spawn("setup", 0, func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			if err := m.Bind(th, xmap.Key{uint64(i), 9}, i); err != nil {
				b.Error(err)
				return
			}
		}
	})
	e.Run()
	e.Spawn("lookup", 0, func(th *sim.Thread) {
		k := uint64(0)
		for i := 0; i < b.N; i++ {
			if _, ok := m.Resolve(th, xmap.Key{k, 9}); !ok {
				b.Error("key missing")
				return
			}
			if k++; k == n {
				k = 0
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// sweepMatrix is the fixed workload the sweeps time: the paper's two
// central single-connection cases (UDP send, TCP receive; 4 KB packets,
// checksum on) at 1..4 processors, one run per point, short virtual
// intervals. 8 simulation points total.
func sweepMatrix() []core.Config {
	var cfgs []core.Config
	for _, proto := range []core.Proto{core.ProtoUDP, core.ProtoTCP} {
		for procs := 1; procs <= 4; procs++ {
			cfg := core.DefaultConfig()
			cfg.Proto = proto
			if proto == core.ProtoTCP {
				cfg.Side = core.SideRecv
			}
			cfg.Procs = procs
			cfg.Seed = 1994
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

const (
	sweepWarmupNs  = 100_000_000
	sweepMeasureNs = 200_000_000
)

// runSweep times the fixed matrix once at the given worker count.
func runSweep(name string, workers int) (Sweep, error) {
	cfgs := sweepMatrix()
	start := time.Now()
	_, _, err := experiments.RunPoints(cfgs, sweepWarmupNs, sweepMeasureNs, 1, workers)
	if err != nil {
		return Sweep{}, err
	}
	wall := time.Since(start)
	return Sweep{
		Name:         name,
		Workers:      workers,
		Points:       len(cfgs),
		WallMs:       float64(wall.Nanoseconds()) / 1e6,
		PointsPerSec: float64(len(cfgs)) / wall.Seconds(),
	}, nil
}

// Collect runs every micro and sweep and assembles the report.
func Collect() (Report, error) {
	r := Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, m := range MicroBenchmarks() {
		res := testing.Benchmark(m.Fn)
		r.Micros = append(r.Micros, Micro{
			Name:        m.Name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			Ops:         res.N,
		})
	}
	for _, s := range []struct {
		name    string
		workers int
	}{
		{"quick-matrix-seq", 1},
		{"quick-matrix-par", 0},
	} {
		sw, err := runSweep(s.name, s.workers)
		if err != nil {
			return r, err
		}
		r.Sweeps = append(r.Sweeps, sw)
	}
	return r, nil
}

// Compare ratchets cur against base: any sweep slower than factor times
// its baseline wall time is a failure. Micro deltas are advisory and
// come back as warnings (they localize regressions but are too noisy
// across machines to gate on).
func Compare(cur, base Report, factor float64) (failures, warnings []string) {
	baseSweeps := map[string]Sweep{}
	for _, s := range base.Sweeps {
		baseSweeps[s.Name] = s
	}
	for _, s := range cur.Sweeps {
		b, ok := baseSweeps[s.Name]
		if !ok || b.WallMs <= 0 {
			continue
		}
		if s.WallMs > factor*b.WallMs {
			failures = append(failures, fmt.Sprintf(
				"sweep %s: %.0f ms vs baseline %.0f ms (> %.1fx)",
				s.Name, s.WallMs, b.WallMs, factor))
		}
	}
	baseMicros := map[string]Micro{}
	for _, m := range base.Micros {
		baseMicros[m.Name] = m
	}
	for _, m := range cur.Micros {
		b, ok := baseMicros[m.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		if m.NsPerOp > factor*b.NsPerOp {
			warnings = append(warnings, fmt.Sprintf(
				"micro %s: %.1f ns/op vs baseline %.1f ns/op (> %.1fx)",
				m.Name, m.NsPerOp, b.NsPerOp, factor))
		}
		if m.AllocsPerOp > b.AllocsPerOp {
			warnings = append(warnings, fmt.Sprintf(
				"micro %s: %d allocs/op vs baseline %d",
				m.Name, m.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return failures, warnings
}
