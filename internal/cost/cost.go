// Package cost defines the machine cost model for the simulated
// shared-memory multiprocessor.
//
// All values are virtual nanoseconds (or ns-per-byte) charged by protocol
// and infrastructure code as it executes on the discrete-event engine
// (internal/sim). The base numbers are anchored to figures published in
// Nahum et al., "Performance Issues in Parallelized Network Protocols"
// (OSDI '94) for the 100 MHz R4400 SGI Challenge:
//
//   - IRIX mutex lock/unlock pair: 0.7 us uncontended; MCS pair: 1.5 us.
//   - Checksum bandwidth: 32 MB/s per CPU when missing the cache
//     (~31 ns per byte).
//   - Single-processor UDP send throughput, 4 KB packets, checksum off:
//     ~200 Mbit/s (~164 us per packet through the whole stack).
//   - Single-processor TCP throughput about half of UDP's, with the
//     connection-state lock held for most of the protocol-specific work.
//
// The other machine profiles scale these anchors: the 150 MHz R4400 runs
// CPU work 1.5x faster with slightly faster memory, and the 33 MHz R3000
// Power Series runs CPU work ~3x slower but synchronizes over a dedicated
// sync bus (flat, cheap lock probes, no coherence-miss growth), which is
// why it shows the best relative speedup in the paper's Section 7.
package cost

import (
	"fmt"
	"strings"
)

// Machine describes one hardware platform profile.
type Machine struct {
	Name string

	// CPU divides fixed per-operation work: a value of 1.0 is the
	// 100 MHz R4400 anchor; 1.5 means instructions retire 1.5x faster.
	CPU float64

	// Mem divides per-byte work (copies, checksums). Memory speed did
	// not scale with clock rate across these generations, which is the
	// architectural trend Section 7 highlights.
	Mem float64

	// SyncBus selects the Power-Series-style dedicated synchronization
	// bus: lock probes cost a flat bus transaction and contended
	// handoffs do not pay coherence line transfers.
	SyncBus bool
}

// The three platforms measured in Section 7 of the paper.
var (
	Challenge100  = Machine{Name: "R4400 MP (100MHz)", CPU: 1.0, Mem: 1.0}
	Challenge150  = Machine{Name: "R4400 MP (150MHz)", CPU: 1.5, Mem: 1.15}
	PowerSeries33 = Machine{Name: "R3000 MP (33MHz)", CPU: 0.60, Mem: 0.95, SyncBus: true}
)

// Machines lists the profiles in the order the paper plots them, and
// machineFlags their command-line spellings in the same order.
var (
	Machines     = []Machine{Challenge150, Challenge100, PowerSeries33}
	machineFlags = []string{"challenge150", "challenge100", "power33"}
)

func (m Machine) String() string { return m.Name }

// Set selects one of Machines by its command-line spelling or its Name
// (flag.Value).
func (m *Machine) Set(s string) error {
	for i := range Machines {
		if s == machineFlags[i] || s == Machines[i].Name {
			*m = Machines[i]
			return nil
		}
	}
	return fmt.Errorf("unknown machine %q (want %s)", s, strings.Join(machineFlags, ", "))
}

// Sync holds synchronization costs in virtual nanoseconds.
type Sync struct {
	LockProbe int64 // one test-and-set / sync-bus probe attempt
	LockEnter int64 // bookkeeping on successful acquisition
	LockExit  int64 // release store
	MCSSwap   int64 // tail swap on MCS acquire
	Handoff   int64 // contended handoff (cache line transfer)
	Coherence int64 // touching a shared line last written by another CPU
	Atomic    int64 // one LL/SC atomic read-modify-write
	// RefLockedWork is the critical-section cost of a lock-increment-
	// unlock sequence (procedure call, three memory writes) when atomic
	// primitives are not used (Section 5.2).
	RefLockedWork int64
	BackoffMin    int64 // initial backoff gap of the unfair spin lock
	BackoffMax    int64 // backoff cap
	// ArbWindow bounds test-and-set unfairness: on release, bus
	// arbitration picks a random winner among the ArbWindow
	// longest-spinning waiters (1 = FIFO).
	ArbWindow int
	SyncBus   bool
}

// Stack holds fixed per-packet costs for each protocol layer, in virtual
// nanoseconds, plus per-byte rates. "In-lock" TCP costs are the portions
// executed while holding connection-state locks; they bound the
// serialized throughput of a single connection.
type Stack struct {
	// Per-byte rates (ns/byte).
	ChecksumByte float64 // one's-complement checksum over payload
	CopyByte     float64 // data touch/copy when building or delivering

	// Message tool.
	MsgAllocCached int64 // MNode from the per-processor LIFO cache
	MsgAllocArena  int64 // MNode from the global locked arena (malloc)
	MsgFree        int64
	MsgOp          int64 // push/pop/split bookkeeping
	// MsgCold is the memory-contention penalty for receiving a buffer
	// last touched by another processor (its cache lines are remote) —
	// the contention per-processor caching avoids (Section 6).
	MsgCold int64

	// Map manager.
	MapHash     int64 // hash + chain walk on a miss of the 1-behind cache
	MapCacheHit int64 // 1-behind cache hit

	// Event manager.
	EventSchedule int64
	EventCancel   int64

	// Application test code.
	AppSend int64 // per packet handed to the transport
	AppRecv int64 // per packet counted by the sink

	// Driver.
	DriverRing  int64 // serialized adaptor ring/DMA work, under the driver lock
	DriverTX    int64 // consume an outbound packet (outside the ring lock)
	DriverRXGen int64 // produce an inbound packet from a template (outside the ring lock)
	DriverAck   int64 // build an acknowledgement from a template

	// FDDI.
	FDDISend int64
	FDDIRecv int64 // includes header parse, before demux lookup

	// IP.
	IPSend     int64
	IPRecv     int64
	IPFragment int64 // per fragment produced
	IPReass    int64 // per fragment absorbed into the reassembly table

	// UDP.
	UDPSend int64
	UDPRecv int64

	// TCP. The split into pre/locked/post mirrors where the Net/2 code
	// holds the connection state lock.
	TCPSendPre    int64 // input checks, header template setup
	TCPSendLocked int64 // window checks, sequence advance, rexmt append
	TCPSendPost   int64 // header finalize after unlock
	TCPAckLocked  int64 // processing one inbound ACK under the lock
	TCPRecvPre    int64 // header parse before locking
	TCPRecvFast   int64 // header-prediction fast path, under the lock
	TCPRecvSlow   int64 // extra work for a non-predicted segment
	TCPReassIns   int64 // insert one segment into the reassembly queue
	TCPReassDrain int64 // remove one segment when the gap fills
	TCPAckGen     int64 // building an ACK segment
	TCPWindowUpd  int64 // window update bookkeeping

	// Thread machinery.
	Yield   int64 // explicit processor yield (send side, per packet)
	Migrate int64 // cache-affinity penalty when an unwired thread moves
	// Inter-thread packet handoff (connection-level and layered
	// parallelism): queue manipulation and the context-switch /
	// service-procedure dispatch paid per dequeued packet.
	QueueOp   int64
	CtxSwitch int64
}

// Model combines a machine profile with the derived cost tables.
type Model struct {
	Machine Machine
	Sync    Sync
	Stack   Stack
	// JitterFrac is the +/- fractional noise applied by ChargeRand
	// call sites, giving runs their experimental variance.
	JitterFrac float64
	// InterfereProb and InterfereMax model occasional large delays a
	// protocol thread suffers between packets (cache/TLB interference,
	// stray OS activity): with probability InterfereProb per packet the
	// thread loses uniform(0, InterfereMax) ns. These delays let other
	// packets pass — the residual misordering the paper observes even
	// under FIFO locks (Table 1's MCS column).
	InterfereProb float64
	InterfereMax  int64
}

// baseSync is the 100 MHz Challenge synchronization cost table.
// 0.7 us for an uncontended mutex lock/unlock pair and 1.5 us for an MCS
// pair come straight from Section 4.1 of the paper.
var baseSync = Sync{
	LockProbe:     250,
	LockEnter:     150,
	LockExit:      300,
	MCSSwap:       1050,
	Handoff:       900,
	Coherence:     700,
	Atomic:        350,
	RefLockedWork: 3000,
	BackoffMin:    500,
	BackoffMax:    64000,
	ArbWindow:     3,
}

// powerSync is the Power Series sync-bus table: probes are flat bus
// transactions, handoff pays no coherence transfer, and backoff does not
// grow (hardware spinlocks poll the sync bus at a fixed rate).
var powerSync = Sync{
	LockProbe:     600,
	LockEnter:     200,
	LockExit:      400,
	MCSSwap:       800,
	Handoff:       600,
	Coherence:     150,
	Atomic:        800,
	RefLockedWork: 3500,
	BackoffMin:    800,
	BackoffMax:    800,
	// The dedicated synchronization bus serves lock requests in the
	// order it polls them — effectively FIFO. The paper suspects this
	// difference explains why the Power Series shows neither the
	// receive-side drop nor the misordering of the Challenge.
	ArbWindow: 1,
	SyncBus:   true,
}

// baseStack is the 100 MHz Challenge stack cost table. The totals are
// calibrated so that single-processor throughputs land near the paper's
// Figures 2-9: UDP send 4 KB checksum-off ~200 Mbit/s, checksum adds
// ~31 ns/byte (32 MB/s), TCP roughly half of UDP with the state lock held
// for the bulk of TCP-specific work (Pixie showed 85-90% of time waiting
// on that lock at 8 CPUs).
var baseStack = Stack{
	ChecksumByte: 31.0,
	CopyByte:     19.0,

	MsgAllocCached: 1800,
	MsgAllocArena:  12000,
	MsgFree:        1200,
	MsgOp:          700,
	MsgCold:        16000,

	MapHash:     2500,
	MapCacheHit: 600,

	EventSchedule: 4000,
	EventCancel:   2500,

	AppSend: 9000,
	AppRecv: 15000,

	DriverRing:  12000,
	DriverTX:    3000,
	DriverRXGen: 13000,
	DriverAck:   6000,

	FDDISend: 11000,
	FDDIRecv: 20000,

	IPSend:     17000,
	IPRecv:     30000,
	IPFragment: 9000,
	IPReass:    11000,

	UDPSend: 16000,
	UDPRecv: 17000,

	TCPSendPre:    14000,
	TCPSendLocked: 150000,
	TCPSendPost:   9000,
	TCPAckLocked:  26000,
	TCPRecvPre:    25000,
	TCPRecvFast:   90000,
	TCPRecvSlow:   22000,
	TCPReassIns:   17000,
	TCPReassDrain: 12000,
	TCPAckGen:     9000,
	TCPWindowUpd:  5000,

	Yield:     2000,
	Migrate:   25000,
	QueueOp:   1500,
	CtxSwitch: 18000,
}

// NewModel derives the full cost model for a machine profile.
func NewModel(m Machine) *Model {
	var s Sync
	if m.SyncBus {
		s = powerSync
	} else {
		s = baseSync
	}
	// Fixed-op costs scale with CPU speed; per-byte costs with memory.
	scale := func(v int64) int64 {
		if v == 0 {
			return 0
		}
		n := int64(float64(v) / m.CPU)
		if n < 1 {
			n = 1
		}
		return n
	}
	// Per-byte and state-manipulation work scale with memory speed,
	// not clock rate: touching packet data and chasing protocol control
	// block pointers is memory-bound on all three generations — the
	// Section 7 observation that protocol processing does not speed up
	// with the clock.
	scaleMem := func(v int64) int64 {
		n := int64(float64(v) / m.Mem)
		if n < 1 {
			n = 1
		}
		return n
	}
	st := baseStack
	st.ChecksumByte = baseStack.ChecksumByte / m.Mem
	st.CopyByte = baseStack.CopyByte / m.Mem
	for _, p := range []*int64{
		&st.TCPSendLocked, &st.TCPRecvFast, &st.TCPAckLocked,
		&st.TCPRecvSlow, &st.TCPReassIns, &st.TCPReassDrain,
	} {
		*p = scaleMem(*p)
	}

	for _, p := range []*int64{
		&st.MsgAllocCached, &st.MsgAllocArena, &st.MsgFree, &st.MsgOp,
		&st.MsgCold,
		&st.MapHash, &st.MapCacheHit,
		&st.EventSchedule, &st.EventCancel,
		&st.AppSend, &st.AppRecv,
		&st.DriverRing, &st.DriverTX, &st.DriverRXGen, &st.DriverAck,
		&st.FDDISend, &st.FDDIRecv,
		&st.IPSend, &st.IPRecv, &st.IPFragment, &st.IPReass,
		&st.UDPSend, &st.UDPRecv,
		&st.TCPSendPre, &st.TCPSendPost, &st.TCPRecvPre,
		&st.TCPAckGen, &st.TCPWindowUpd,
		&st.Yield, &st.Migrate, &st.QueueOp, &st.CtxSwitch,
	} {
		*p = scale(*p)
	}
	return &Model{
		Machine:       m,
		Sync:          s,
		Stack:         st,
		JitterFrac:    0.10,
		InterfereProb: 0.06,
		InterfereMax:  600_000,
	}
}

// Bytes returns the per-byte charge for n bytes at rate ns/byte.
func Bytes(rate float64, n int) int64 {
	if n <= 0 {
		return 0
	}
	return int64(rate * float64(n))
}
