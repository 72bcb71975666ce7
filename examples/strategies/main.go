// Strategies: the comparison the paper names as future work (Section 8)
// — packet-level vs connection-level vs layered parallelism on the same
// workload, using this library's implementations of all three Section 1
// strategies.
//
// Run with:
//
//	go run ./examples/strategies
package main

import (
	"fmt"
	"log"

	"repro/parnet"
)

func main() {
	const (
		maxProcs = 8
		conns    = 4
	)
	base := parnet.DefaultConfig()
	base.Proto = parnet.TCP
	base.Side = parnet.Receive
	base.Connections = conns
	base.LockKind = parnet.MCSLock
	base.WarmupMs = 400
	base.MeasureMs = 800
	base.Runs = 2

	strategies := []parnet.ParallelismStrategy{parnet.PacketLevel, parnet.ConnectionLevel, parnet.Layered}

	fmt.Printf("TCP receive, %d connections, 4KB packets, checksum on:\n\n", conns)
	fmt.Printf("%-6s", "procs")
	for _, st := range strategies {
		fmt.Printf(" %18v", st)
	}
	fmt.Println("   (Mbit/s)")

	results := make([][]parnet.Result, len(strategies))
	for i, st := range strategies {
		cfg := base
		cfg.Strategy = st
		// Keep the connection count fixed: the point is what happens
		// when processors outnumber connections.
		var rs []parnet.Result
		for p := 1; p <= maxProcs; p++ {
			c := cfg
			c.Procs = p
			r, err := parnet.Run(c)
			if err != nil {
				log.Fatal(err)
			}
			rs = append(rs, r)
		}
		results[i] = rs
	}
	for p := 0; p < maxProcs; p++ {
		fmt.Printf("%-6d", p+1)
		for i := range strategies {
			fmt.Printf(" %15.1f   ", results[i][p].Mbps)
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("What to see:")
	fmt.Println("  - Packet-level keeps scaling past the connection count: any")
	fmt.Println("    processor can process any packet (maximum flexibility and")
	fmt.Println("    utilization, as the paper puts it).")
	fmt.Println("  - Connection-level caps once processors outnumber connections —")
	fmt.Printf("    but its misordering is zero by construction (measured: %.1f%%).\n",
		results[1][maxProcs-1].OOOPct)
	fmt.Println("  - Layered caps at its slowest pipeline stage plus a context")
	fmt.Println("    switch per layer crossing: the Schmidt & Suda result the")
	fmt.Println("    paper cites for why it studies packet-level parallelism.")
}
