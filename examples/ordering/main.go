// Ordering: reproduce the Section 4 story end to end — how lock
// fairness controls packet order, how packet order controls TCP
// performance, and what preserving order above TCP costs.
//
// Run with:
//
//	go run ./examples/ordering
package main

import (
	"fmt"
	"log"

	"repro/parnet"
)

func sweep(cfg parnet.Config, maxProcs int) []parnet.Result {
	rs, err := parnet.Sweep(cfg, maxProcs)
	if err != nil {
		log.Fatal(err)
	}
	return rs
}

func main() {
	const maxProcs = 8
	base := parnet.DefaultConfig()
	base.Proto = parnet.TCP
	base.Side = parnet.Receive
	base.PacketSize = 4096
	base.Checksum = true
	base.WarmupMs = 400
	base.MeasureMs = 800
	base.Runs = 2

	// Figure 10's three curves.
	inOrder := base
	inOrder.AssumeInOrder = true
	mcs := base
	mcs.LockKind = parnet.MCSLock
	mutex := base

	fmt.Println("== Figure 10: Ordering Effects in TCP (recv, 4KB, checksum on) ==")
	rIn := sweep(inOrder, maxProcs)
	rMCS := sweep(mcs, maxProcs)
	rMu := sweep(mutex, maxProcs)
	fmt.Printf("%-6s %18s %14s %14s\n", "procs", "assumed in-order", "MCS locks", "mutex locks")
	for i := 0; i < maxProcs; i++ {
		fmt.Printf("%-6d %15.1f %14.1f %14.1f   Mbit/s\n",
			i+1, rIn[i].Mbps, rMCS[i].Mbps, rMu[i].Mbps)
	}
	fmt.Println()
	fmt.Println("The top curve treats every packet as in-order (an upper bound);")
	fmt.Println("MCS locks bridge the majority of the gap from the mutex baseline.")
	fmt.Println()

	// Table 1: the misordering the locks produce.
	fmt.Println("== Table 1: % of packets out-of-order at TCP ==")
	fmt.Printf("%-6s %12v %12s\n", "procs", parnet.MutexLock, "MCS")
	for i := 0; i < maxProcs; i++ {
		fmt.Printf("%-6d %11.1f%% %11.1f%%\n", i+1, rMu[i].OOOPct, rMCS[i].OOOPct)
	}
	fmt.Println()

	// Section 4.2: preserving order above TCP via tickets.
	ticketed := mcs
	ticketed.Ticketing = true
	fmt.Println("== Figure 11: the cost of preserving order above TCP ==")
	rT := sweep(ticketed, maxProcs)
	fmt.Printf("%-6s %14s %16s\n", "procs", "no ticketing", "with ticketing")
	for i := 0; i < maxProcs; i++ {
		fmt.Printf("%-6d %11.1f %14.1f   Mbit/s\n", i+1, rMCS[i].Mbps, rT[i].Mbps)
	}
	fmt.Println()
	fmt.Println("The ticketed application waits for each packet's up-ticket before")
	fmt.Println("its critical section; the mechanism is small but it restricts order,")
	fmt.Println("further limiting performance (Section 4.2).")

	// Section 4.1's side issue: the send side wire stays ordered.
	send := parnet.DefaultConfig()
	send.Proto = parnet.TCP
	send.Side = parnet.Send
	send.Procs = maxProcs
	send.WarmupMs = 400
	send.MeasureMs = 800
	res, err := parnet.Run(send)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("Send side at %d procs: %.2f%% of packets misordered on the wire\n",
		maxProcs, res.WireOOOPct)
	fmt.Println("(the paper observed fewer than one percent — there are no locks")
	fmt.Println("between TCP output and the FDDI driver for threads to pass at).")
}
