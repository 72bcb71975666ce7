// Quickstart: measure one parallel protocol stack and read the numbers
// the paper's experiments revolve around.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/parnet"
)

func main() {
	// Baseline from the paper's Section 3: a single TCP connection,
	// 4 KB packets with checksumming, TCP-1 locking, on the simulated
	// 8-processor 100 MHz Challenge.
	cfg := parnet.DefaultConfig()
	cfg.Proto = parnet.TCP
	cfg.Side = parnet.Receive
	cfg.PacketSize = 4096
	cfg.Checksum = true

	fmt.Println("TCP receive-side throughput, one connection (Figure 8's story):")
	fmt.Println()
	fmt.Printf("%-6s %12s %14s %12s\n", "procs", "Mbit/s", "out-of-order", "lock wait")
	results, err := parnet.Sweep(cfg, 8)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("%-6d %9.1f    %11.1f%% %11.0f%%\n",
			i+1, r.Mbps, r.OOOPct, 100*r.LockWaitFrac)
	}

	fmt.Println()
	fmt.Println("Watch three things as processors are added:")
	fmt.Println("  1. Throughput stops scaling: the connection-state lock serializes")
	fmt.Println("     all TCP processing for a single connection.")
	fmt.Println("  2. Beyond 4-5 processors throughput DROPS: the unfair mutex")
	fmt.Println("     reorders contending threads, header prediction starts missing,")
	fmt.Println("     and every misordered packet takes the expensive reassembly path.")
	fmt.Println("  3. The lock-wait column climbs toward the paper's Pixie profile")
	fmt.Println("     (90% of time waiting on the connection state lock at 8 CPUs).")
	fmt.Println()

	// The fix from Section 4.1: FIFO MCS locks.
	cfg.LockKind = parnet.MCSLock
	cfg.Procs = 8
	mcs, err := parnet.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Same test with FIFO MCS locks at 8 procs: %.1f Mbit/s, %.1f%% out-of-order\n",
		mcs.Mbps, mcs.OOOPct)
	fmt.Println("(\"Preserving order pays\" — the paper's first conclusion.)")
}
