package parnet_test

import (
	"fmt"
	"log"

	"repro/parnet"
)

// ExampleSweep is the paper's Figure 8 story: one TCP connection
// received on 1 to 8 processors, 4 KB packets with checksumming, TCP-1
// with the unfair mutex as its state lock. Throughput climbs while the
// state lock is cheap, then drops past 4-5 processors: contending
// threads are granted the lock out of order, header prediction misses,
// and misordered segments take the reassembly path while lock wait
// grows. FIFO MCS locks at 8 processors keep order and recover the
// loss (Section 4.1). The catalogue's fig08-09, fig10 and table1
// regenerate the full figures.
func ExampleSweep() {
	cfg := parnet.DefaultConfig()
	cfg.Proto = parnet.TCP
	cfg.Side = parnet.Receive
	cfg.PacketSize = 4096
	cfg.Checksum = true
	cfg.WarmupMs, cfg.MeasureMs, cfg.Runs = 200, 400, 1

	results, err := parnet.Sweep(cfg, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %7s %13s %10s\n", "procs", "Mbit/s", "out-of-order", "lock wait")
	for i, r := range results {
		fmt.Printf("%-6d %7.1f %12.1f%% %9.0f%%\n", i+1, r.Mbps, r.OOOPct, 100*r.LockWaitFrac)
	}

	cfg.LockKind = parnet.MCSLock
	cfg.Procs = 8
	mcs, err := parnet.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MCS locks at 8 procs: %.1f Mbit/s, %.1f%% out-of-order\n", mcs.Mbps, mcs.OOOPct)
	// Output:
	// procs   Mbit/s  out-of-order  lock wait
	// 1         79.4          0.0%         0%
	// 2        147.8          3.9%         4%
	// 3        220.8          7.8%         3%
	// 4        270.4         13.2%        10%
	// 5        258.7         41.4%        26%
	// 6        239.0         63.0%        40%
	// 7        237.6         65.4%        49%
	// 8        236.0         66.8%        56%
	// MCS locks at 8 procs: 326.8 Mbit/s, 12.9% out-of-order
}
