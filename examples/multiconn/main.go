// Multiconn: the paper's answer to single-connection TCP's limits —
// give each processor its own connection (Section 4.3, Figure 12), and
// compare the locking layouts that try (and fail) to buy parallelism
// with finer locks instead (Section 5.1, Figures 13-14).
//
// Run with:
//
//	go run ./examples/multiconn
package main

import (
	"fmt"
	"log"

	"repro/parnet"
)

func main() {
	const maxProcs = 8
	base := parnet.DefaultConfig()
	base.Proto = parnet.TCP
	base.Side = parnet.Receive
	base.PacketSize = 4096
	base.Checksum = true
	base.LockKind = parnet.MCSLock
	base.WarmupMs = 400
	base.MeasureMs = 800
	base.Runs = 2

	single := base
	multi := base
	multi.Connections = 2 // Sweep raises this to one connection per processor

	rSingle, err := parnet.Sweep(single, maxProcs)
	if err != nil {
		log.Fatal(err)
	}
	rMulti, err := parnet.Sweep(multi, maxProcs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Figure 12: single connection vs one connection per processor ==")
	fmt.Printf("%-6s %16s %22s\n", "procs", "1 connection", "connection/processor")
	for i := 0; i < maxProcs; i++ {
		fmt.Printf("%-6d %13.1f %19.1f   Mbit/s\n", i+1, rSingle[i].Mbps, rMulti[i].Mbps)
	}
	spS := parnet.Speedup(rSingle)
	spM := parnet.Speedup(rMulti)
	fmt.Printf("\nSpeedup at %d procs: %.1fx (single) vs %.1fx (multi)\n",
		maxProcs, spS[maxProcs-1], spM[maxProcs-1])
	fmt.Println("The connection state lock is the single-connection bottleneck;")
	fmt.Println("multiple connections avoid contending for it (Section 4.3).")
	fmt.Println()

	fmt.Println("== Figures 13-14's lesson: finer locks are not the answer ==")
	fmt.Printf("%-28s %14s\n", "layout (8 procs, 1 conn)", "Mbit/s")
	for _, v := range []struct {
		name   string
		layout parnet.Layout
	}{
		{"TCP-1 (single state lock)", parnet.TCP1},
		{"TCP-2 (send + recv locks)", parnet.TCP2},
		{"TCP-6 (six SICS locks)", parnet.TCP6},
	} {
		cfg := base
		cfg.Layout = v.layout
		cfg.Procs = maxProcs
		r, err := parnet.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %11.1f\n", v.name, r.Mbps)
	}
	fmt.Println()
	fmt.Println("Net/2 TCP manipulates send-side state on the receive path and")
	fmt.Println("vice versa, so finer locks add acquisitions without adding")
	fmt.Println("parallelism — and TCP-6 checksums inside its header locks.")
	fmt.Println("\"Simpler locking is better\" (Section 8).")
}
