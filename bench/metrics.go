package main

// The metric catalogue: every number the benchmark reports, by name,
// unit and direction. BENCHMARK.json at the repo root is generated from
// these tables (`go run ./bench -manifest`) and a test keeps the two in
// step.

// metricDef declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none. Floor is
// the value below which the metric is noise, not signal: a handful of
// runtime allocations, a few KB of heap, microseconds of set-up. The two
// count metrics read their floor until the real value crosses it;
// setup_s is a time and is reported as measured, so its floor only
// applies when the repeat check compares two sets.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Floor  float64
}

// endToEndDef returns the named end-to-end metric's declaration.
func endToEndDef(name string) metricDef {
	for _, d := range endToEnd {
		if d.Name == name {
			return d
		}
	}
	panic("bench: no end-to-end metric " + name)
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, with one definition that holds on both substrates
// and for the catalogue workload (README.md spells each out).
var endToEnd = []metricDef{
	// Virtual-time throughput over the measurement interval, and the
	// same over the configuration at one processor. Both repeat exactly
	// per seed; the bounds leave room for seed-to-seed differences only.
	{Name: "sim_mbps", Unit: "Mb/s", Better: "higher", Bound: 0.03},
	{Name: "sim_speedup", Unit: "x", Better: "higher", Bound: 0.07},
	// Packets and payload megabits moved through the stack per host
	// second of a full pass's Run (wall-clock Mb/s on the host backend),
	// and host seconds for one full pass.
	{Name: "host_kpps", Unit: "kpkt/s", Better: "higher", Bound: 0.25},
	{Name: "host_mbps", Unit: "Mb/s", Better: "higher", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Go heap allocations per packet in steady state (full pass minus
	// set-up pass).
	{Name: "host_allocs_per_pkt", Unit: "1/pkt", Better: "lower", Bound: 0.10, Floor: 0.05},
	// Host seconds for Build plus a set-up-only Run, and the live heap
	// the built, set-up stack adds.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.01},
	{Name: "setup_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05, Floor: 4},
	// 1 - fail_share: packets offered that were neither dropped nor
	// rejected.
	{Name: "delivered_share", Unit: "share", Better: "higher", Bound: 0.001},
}

// cpuModules are the packages the traced pass's CPU profile is bucketed
// into (<module>.host_cpu_share).
var cpuModules = []string{"sim", "tcp", "udp", "ip", "fddi", "chksum", "msg", "xmap",
	"event", "steer", "workload", "driver", "trace", "telemetry"}

// perLayer is measured by the traced pass (`-trace 1`): counts and
// virtual-time shares read off the stack's public stats, harness probes
// timing one layer's public functions (host ns/op), and the CPU
// profile. A metric whose layer a workload does not use reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// sim: locks in virtual time, engine cost in host time.
		{Name: "sim.state_lock_wait_share", Unit: "share", Better: "lower"},
		{Name: "sim.lock_wait_share", Unit: "share", Better: "lower"},
		{Name: "sim.lock_contended_share", Unit: "share", Better: "lower"},
		{Name: "sim.lock_hold_ns_per_pkt", Unit: "ns", Better: "lower"},
		{Name: "sim.host_fastpath_ns", Unit: "ns", Better: "lower"},
		{Name: "sim.host_handoff_ns", Unit: "ns", Better: "lower"},
		{Name: "sim.host_lock_handoff_ns", Unit: "ns", Better: "lower"},
		{Name: "sim.gomaxprocs_penalty", Unit: "x", Better: "lower"},
		{Name: "sim.host_lock_wait_share", Unit: "share", Better: "lower"},
		// protocol layers: virtual self time and TCP behaviour.
		{Name: "tcp.self_ns_per_pkt", Unit: "ns", Better: "lower"},
		{Name: "udp.self_ns_per_pkt", Unit: "ns", Better: "lower"},
		{Name: "ip.self_ns_per_pkt", Unit: "ns", Better: "lower"},
		{Name: "fddi.self_ns_per_pkt", Unit: "ns", Better: "lower"},
		{Name: "tcp.ooo_pct", Unit: "%", Better: "lower"},
		{Name: "tcp.predict_hit_share", Unit: "share", Better: "higher"},
		{Name: "tcp.rexmt_per_kpkt", Unit: "1/kpkt", Better: "lower"},
		{Name: "tcp.acks_per_data_seg", Unit: "ratio", Better: "lower"},
		{Name: "chksum.host_ns_per_kb_1k", Unit: "ns", Better: "lower"},
		{Name: "chksum.host_ns_per_kb_4k", Unit: "ns", Better: "lower"},
		// infrastructure.
		{Name: "msg.cache_hit_share", Unit: "share", Better: "higher"},
		{Name: "msg.arena_lock_wait_share", Unit: "share", Better: "lower"},
		{Name: "msg.host_alloc_free_ns", Unit: "ns", Better: "lower"},
		{Name: "msg.host_clone_free_ns", Unit: "ns", Better: "lower"},
		{Name: "msg.host_absorb_ns", Unit: "ns", Better: "lower"},
		{Name: "xmap.cache_hit_share", Unit: "share", Better: "higher"},
		{Name: "xmap.host_resolve_1m_ns", Unit: "ns", Better: "lower"},
		{Name: "event.host_arm_cancel_ns", Unit: "ns", Better: "lower"},
		{Name: "event.host_advance_idle_ns", Unit: "ns", Better: "lower"},
		// steering, batching, workload generator and sink.
		{Name: "steer.flow_hit_share", Unit: "share", Better: "higher"},
		{Name: "steer.evicts_per_kpkt", Unit: "1/kpkt", Better: "lower"},
		{Name: "steer.repins_per_kpkt", Unit: "1/kpkt", Better: "lower"},
		{Name: "steer.ring_drop_share", Unit: "share", Better: "lower"},
		{Name: "steer.imbalance_pct", Unit: "%", Better: "lower"},
		{Name: "steer.host_toeplitz_ns", Unit: "ns", Better: "lower"},
		{Name: "driver.batch_segs_per_frame", Unit: "ratio", Better: "higher"},
		{Name: "workload.sink_ooo_pct", Unit: "%", Better: "lower"},
		{Name: "workload.sink_evicts_per_kpkt", Unit: "1/kpkt", Better: "lower"},
		{Name: "workload.host_next_ns", Unit: "ns", Better: "lower"},
		{Name: "core.setup_bytes_per_conn", Unit: "B", Better: "lower"},
		{Name: "core.setup_allocs_per_conn", Unit: "count", Better: "lower"},
		// the observers' own cost, and the experiments pool.
		{Name: "trace.host_overhead_pct", Unit: "%", Better: "lower"},
		{Name: "trace.dropped_events", Unit: "count", Better: "lower"},
		{Name: "trace.e2e_p50_ns", Unit: "ns", Better: "lower"},
		{Name: "trace.e2e_p99_ns", Unit: "ns", Better: "lower"},
		{Name: "experiments.points_per_host_s", Unit: "1/s", Better: "higher"},
		{Name: "experiments.par_speedup", Unit: "x", Better: "higher"},
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{Name: m + ".host_cpu_share", Unit: "share", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "goruntime.sched_cpu_share", Unit: "share", Better: "lower"},
		metricDef{Name: "goruntime.gc_cpu_share", Unit: "share", Better: "lower"})
}
