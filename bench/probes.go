package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/chksum"
	"repro/internal/cost"
	"repro/internal/event"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/steer"
	traffic "repro/internal/workload"
	"repro/internal/xmap"
)

// Probes are harness-owned loops timing one layer's public functions
// from outside: host nanoseconds per operation. Each probe runs its
// loop probeRounds times and reports the median round, so one
// descheduling does not set the number.
const probeRounds = 5

// probeSink keeps probe results live so the compiler cannot drop the
// measured calls.
var probeSink uint64

// timeRounds times probeRounds executions of round, each performing ops
// operations, and returns the median ns/op.
func timeRounds(ops int, round func()) float64 {
	ns := make([]float64, probeRounds)
	for i := range ns {
		t0 := time.Now()
		round()
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	sort.Float64s(ns)
	return ns[probeRounds/2]
}

// onEngine runs body on one thread of a fresh sim engine: most layer
// functions charge virtual time and so need a *sim.Thread.
func onEngine(body func(t *sim.Thread)) {
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	e.Spawn("probe", 0, body)
	e.Run()
}

// runProbes times every probed layer and returns metric name -> ns/op.
// The probes time single goroutines, so they run at GOMAXPROCS=1.
func runProbes(sp *spanLog) map[string]float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer sp.begin("probes")()
	out := map[string]float64{}
	probe := func(name string, fn func() float64) {
		defer sp.begin("probe " + name)()
		out[name] = fn()
	}

	// sim: a thread rescheduling itself (the engine's fast path), two
	// threads in lockstep (every decision parks one goroutine and
	// resumes the other), and eight threads contending on one sim mutex.
	probe("sim.host_fastpath_ns", func() float64 {
		const ops = 500_000
		return timeRounds(ops, func() {
			onEngine(func(t *sim.Thread) {
				for i := 0; i < ops; i++ {
					t.Charge(10)
					t.Sync()
				}
			})
		})
	})
	probe("sim.host_handoff_ns", func() float64 {
		const ops = 100_000
		return timeRounds(ops, func() {
			e := sim.New(cost.NewModel(cost.Challenge100), 1)
			for p := 0; p < 2; p++ {
				e.Spawn(fmt.Sprintf("t%d", p), p, func(t *sim.Thread) {
					for i := 0; i < ops/2; i++ {
						t.Charge(10)
						t.Sync()
					}
				})
			}
			e.Run()
		})
	})
	probe("sim.host_lock_handoff_ns", func() float64 {
		const ops, threads = 80_000, 8
		return timeRounds(ops, func() {
			e := sim.New(cost.NewModel(cost.Challenge100), 1)
			mu := sim.NewLock(sim.KindMutex, "probe")
			for p := 0; p < threads; p++ {
				e.Spawn(fmt.Sprintf("t%d", p), p, func(t *sim.Thread) {
					for i := 0; i < ops/threads; i++ {
						mu.Acquire(t)
						t.Charge(1000)
						mu.Release(t)
						t.Charge(100)
					}
				})
			}
			e.Run()
		})
	})

	for _, kb := range []int{1, 4} {
		buf := make([]byte, kb*1024)
		for i := range buf {
			buf[i] = byte(i * 7)
		}
		probe(fmt.Sprintf("chksum.host_ns_per_kb_%dk", kb), func() float64 {
			const ops = 200_000
			return timeRounds(ops, func() {
				for i := 0; i < ops; i++ {
					probeSink += uint64(chksum.Sum(buf))
				}
			}) / float64(kb)
		})
	}

	// msg: the per-packet allocator paths, and the GRO merge.
	probe("msg.host_alloc_free_ns", func() float64 {
		const ops = 500_000
		a := msg.NewAllocator(msg.DefaultConfig(4))
		return timeRounds(ops, func() {
			onEngine(func(t *sim.Thread) {
				for i := 0; i < ops; i++ {
					m, err := a.New(t, 4096, msg.Headroom)
					if err != nil {
						panic(err)
					}
					m.Free(t)
				}
			})
		})
	})
	probe("msg.host_clone_free_ns", func() float64 {
		const ops = 500_000
		a := msg.NewAllocator(msg.DefaultConfig(4))
		return timeRounds(ops, func() {
			onEngine(func(t *sim.Thread) {
				m, err := a.New(t, 4096, msg.Headroom)
				if err != nil {
					panic(err)
				}
				for i := 0; i < ops; i++ {
					m.Clone(t).Free(t)
				}
				m.Free(t)
			})
		})
	})
	probe("msg.host_absorb_ns", func() float64 {
		const ops, seg, grow = 200_000, 1024, 6 * 1024
		a := msg.NewAllocator(msg.DefaultConfig(4))
		return timeRounds(ops, func() {
			onEngine(func(t *sim.Thread) {
				var head *msg.Message
				for i := 0; i < ops; i++ {
					if head == nil || head.Tailroom() < seg {
						if head != nil {
							head.Free(t)
						}
						h, err := a.New(t, seg+grow, msg.Headroom)
						if err == nil {
							err = h.TrimBack(t, grow)
						}
						if err != nil {
							panic(err)
						}
						head = h
					}
					d, err := a.New(t, seg, msg.Headroom)
					if err == nil {
						err = head.Absorb(t, d)
					}
					if err != nil {
						panic(err)
					}
				}
				head.Free(t)
			})
		})
	})

	// xmap: demux lookups against a million bindings, strided so the
	// one-behind cache never hits.
	probe("xmap.host_resolve_1m_ns", func() float64 {
		const n, ops = 1_000_000, 500_000
		m := xmap.New(64, sim.KindMutex, "probe")
		onEngine(func(t *sim.Thread) {
			for i := 0; i < n; i++ {
				if err := m.Bind(t, xmap.Key{uint64(i), 9}, i); err != nil {
					panic(err)
				}
			}
		})
		return timeRounds(ops, func() {
			onEngine(func(t *sim.Thread) {
				k := uint64(0)
				for i := 0; i < ops; i++ {
					if _, ok := m.Resolve(t, xmap.Key{k, 9}); !ok {
						panic("xmap probe: key missing")
					}
					k = (k + 7919) % n
				}
			})
		})
	})

	// event: the hierarchical wheel with 64k idle timers armed — arm and
	// cancel one more, and advance a tick on which nothing expires.
	probe("event.host_arm_cancel_ns", func() float64 {
		const ops = 500_000
		w := idleWheel()
		var extra event.TimerNode
		return timeRounds(ops, func() {
			onEngine(func(t *sim.Thread) {
				for i := 0; i < ops; i++ {
					w.Arm(t, &extra, w.Now()+int64(1+i%4000))
					w.Cancel(t, &extra)
				}
			})
		})
	})
	probe("event.host_advance_idle_ns", func() float64 {
		// All rounds together stay short of the first cascade that would
		// touch the idle timers (tick 196608).
		const ops = 30_000
		w := idleWheel()
		return timeRounds(ops, func() {
			onEngine(func(t *sim.Thread) {
				var due []*event.TimerNode
				for i := 0; i < ops; i++ {
					due = w.Advance(t, w.Now()+1, due[:0])
				}
				probeSink += uint64(len(due))
			})
		})
	})

	probe("steer.host_toeplitz_ns", func() float64 {
		const ops = 500_000
		s := steer.New(steer.Config{Enabled: true, Policy: steer.PolicyRSS}.WithDefaults(), 8)
		tu := steer.Tuple{SrcIP: [4]byte{10, 0, 0, 2}, DstIP: [4]byte{10, 0, 0, 1}, DstPort: 2000}
		return timeRounds(ops, func() {
			for i := 0; i < ops; i++ {
				tu.SrcPort = uint16(i)
				probeSink += uint64(s.Hash(tu))
			}
		})
	})
	probe("workload.host_next_ns", func() float64 {
		const ops = 500_000
		g := traffic.NewGenerator(traffic.Config{Seed: 1, MeanFlowPkts: 512, HotConnPct: 20, HotConns: 4}, 1_000_000)
		return timeRounds(ops, func() {
			for i := 0; i < ops; i++ {
				probeSink += uint64(g.Next().Conn)
			}
		})
	})
	return out
}

// idleWheel returns a wheel with 64k timers armed far enough out that
// none expires during a probe.
func idleWheel() *event.TickWheel {
	const idle = 1 << 16
	w := event.NewTickWheel(sim.KindMutex, "probe")
	nodes := make([]event.TimerNode, idle)
	onEngine(func(t *sim.Thread) {
		for i := range nodes {
			w.Arm(t, &nodes[i], 200_000+int64(i))
		}
	})
	return w
}
