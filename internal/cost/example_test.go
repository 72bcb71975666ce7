package cost_test

import (
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/cost"
)

// ExampleMachines prints each machine profile's cost-model anchors
// beside the paper's numbers (100 MHz Challenge: mutex pair 700 ns, MCS
// pair 1500 ns, checksum 32 MB/s per CPU cache-missing; Sections 3.2
// and 4.1), and the single-connection serialization bounds the TCP
// state lock implies. The paper's single-processor throughput anchors
// are the first rows of fig02-03 through fig08-09.
func ExampleMachines() {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "machine\tCPU scale\tmem scale\tsync\tmutex pair\tMCS pair\tchecksum MB/s")
	for _, m := range cost.Machines {
		mod := cost.NewModel(m)
		mutexPair := mod.Sync.LockProbe + mod.Sync.LockEnter + mod.Sync.LockExit
		mcsPair := mod.Sync.MCSSwap + mod.Sync.LockEnter + mod.Sync.LockExit
		ckMBps := 1e9 / float64(cost.Bytes(mod.Stack.ChecksumByte, 1<<20))
		syncKind := "coherence"
		if m.SyncBus {
			syncKind = "sync bus"
		}
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%s\t%d ns\t%d ns\t%.1f\n",
			m.Name, m.CPU, m.Mem, syncKind, mutexPair, mcsPair, ckMBps)
	}
	w.Flush()

	mod := cost.NewModel(cost.Challenge100)
	// Cap (Mbit/s) = 4 KB packet bits / state-lock hold time.
	capMbps := func(holdNs int64) float64 { return float64(4096*8) / float64(holdNs) * 1000 }
	sendHold := mod.Stack.TCPSendLocked + mod.Stack.TCPAckLocked/2
	recvHold := mod.Stack.TCPRecvFast
	fmt.Printf("TCP send state-lock hold/packet ≈ %d us → single-connection cap ≈ %.0f Mbit/s (paper: levels off ~215)\n",
		sendHold/1000, capMbps(sendHold))
	fmt.Printf("TCP recv state-lock hold/packet ≈ %d us → single-connection cap ≈ %.0f Mbit/s (paper: levels off above 350)\n",
		recvHold/1000, capMbps(recvHold))
	// Output:
	// machine            CPU scale  mem scale  sync       mutex pair  MCS pair  checksum MB/s
	// R4400 MP (150MHz)  1.50       1.15       coherence  700 ns      1500 ns   35.4
	// R4400 MP (100MHz)  1.00       1.00       coherence  700 ns      1500 ns   30.8
	// R3000 MP (33MHz)   0.60       0.95       sync bus   1200 ns     1400 ns   29.2
	// TCP send state-lock hold/packet ≈ 163 us → single-connection cap ≈ 201 Mbit/s (paper: levels off ~215)
	// TCP recv state-lock hold/packet ≈ 90 us → single-connection cap ≈ 364 Mbit/s (paper: levels off above 350)
}
