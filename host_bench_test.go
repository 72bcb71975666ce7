// BenchmarkHost* measures the simulator's own hot paths on the host —
// the same microbenchmark bodies `ppbench -bench` runs for the
// BENCH_sim.json artifact, exposed to `go test -bench` so profiles
// (-cpuprofile, -memprofile) attach to them directly.
//
//	go test -bench 'BenchmarkHost' -benchmem
package repro

import (
	"testing"

	"repro/internal/hostbench"
)

func hostMicro(b *testing.B, name string) {
	b.Helper()
	for _, m := range hostbench.MicroBenchmarks() {
		if m.Name == name {
			m.Fn(b)
			return
		}
	}
	b.Fatalf("unknown hostbench micro %q", name)
}

// The scheduling fast path: a thread rescheduling itself.
func BenchmarkHostEngineHandoff(b *testing.B) { hostMicro(b, "engine-handoff") }

// The same fast path with seven other threads in the heap.
func BenchmarkHostEngineSyncFastPath8(b *testing.B) { hostMicro(b, "engine-sync-fastpath-8t") }

// A genuine thread-to-thread handoff on every scheduling decision.
func BenchmarkHostEngineHandoffPingPong(b *testing.B) { hostMicro(b, "engine-handoff-pingpong") }

// Thread spawn/teardown with pooled structs and coroutines.
func BenchmarkHostEngineSpawn(b *testing.B) { hostMicro(b, "engine-spawn") }

// The truncated-run lifecycle: RunUntil a limit, then Drain.
func BenchmarkHostEngineRunUntilDrain(b *testing.B) { hostMicro(b, "engine-rununtil-drain") }

// Four threads contending on one simulated lock: block and wake on
// nearly every acquire.
func BenchmarkHostLockContendedMutex(b *testing.B) { hostMicro(b, "lock-contended-mutex-4t") }
func BenchmarkHostLockContendedMCS(b *testing.B)   { hostMicro(b, "lock-contended-mcs-4t") }

// The Internet checksum over an IP header and over a 4 KB segment.
func BenchmarkHostChksumSum20(b *testing.B) { hostMicro(b, "chksum-sum-20b") }
func BenchmarkHostChksumSum4K(b *testing.B) { hostMicro(b, "chksum-sum-4k") }

// Message view alloc/free through the per-processor free lists.
func BenchmarkHostMsgAllocFree(b *testing.B) { hostMicro(b, "msg-alloc-free") }

// Message clone/free (refcounted view sharing).
func BenchmarkHostMsgCloneFree(b *testing.B) { hostMicro(b, "msg-clone-free") }

// The GRO merge hot path (Absorb into a grow-room head); must stay at
// 0 allocs/op — enforced by TestMergeAbsorbZeroAllocs.
func BenchmarkHostMsgMergeAbsorb(b *testing.B) { hostMicro(b, "msg-merge-absorb") }
