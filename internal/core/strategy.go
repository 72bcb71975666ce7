package core

// The alternative parallelization strategies surveyed in Section 1 of
// the paper, implemented for the TCP receive path so they can be
// compared head-to-head with packet-level parallelism:
//
//   - Connection-level parallelism associates each connection with a
//     single processor (Multiprocessor STREAMS most closely matches this
//     model). Arriving packets are handed to the owning processor's
//     queue; the owner runs all protocol processing for its connections,
//     so connection state locks never contend and per-connection packet
//     order is preserved by construction — but a connection can never
//     use more than one processor, and every cross-processor packet pays
//     a handoff.
//
//   - Layered parallelism assigns protocols to specific processors and
//     passes messages between layers through queues, gaining mainly
//     through pipelining. Schmidt and Suda (cited in Section 1) found it
//     loses to the other strategies on shared-memory machines because of
//     the context switching when crossing layers; this implementation
//     reproduces that comparison. Examining these strategies is the
//     future work named in the paper's Section 8.
import (
	"errors"
	"fmt"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/xkernel"
)

// strategyErr tolerates the teardown race (connections aborted while a
// packet is in flight); anything else ends the run with that error, as a
// pump's failure does. The stop flag fail raises ends the producers at
// their next look, and teardown closes the queues the stages wait on.
func (s *Stack) strategyErr(where string, err error) {
	if err != nil && !errors.Is(err, tcp.ErrClosed) {
		s.fail(fmt.Errorf("core: %s: %w", where, err))
	}
}

// Strategy selects how work is divided among processors.
type Strategy int

// Parallelization strategies (Section 1 of the paper).
const (
	// StrategyPacket is packet-level (thread-per-packet) parallelism,
	// the paper's subject and the default.
	StrategyPacket Strategy = iota
	// StrategyConnection binds each connection to one owning processor.
	StrategyConnection
	// StrategyLayered assigns protocol layers to processors and
	// pipelines packets between them.
	StrategyLayered
)

// strategyFlags are the command-line spellings, strategyNames the reports'.
var (
	strategyFlags = []string{StrategyPacket: "packet", StrategyConnection: "connection", StrategyLayered: "layered"}
	strategyNames = []string{StrategyPacket: "packet-level", StrategyConnection: "connection-level", StrategyLayered: "layered"}
)

func (s Strategy) String() string { return sim.EnumName(strategyNames, s) }

// Set parses a strategy by either spelling (flag.Value).
func (s *Strategy) Set(v string) error {
	return sim.SetEnum(s, "strategy", v, strategyFlags, strategyNames)
}

// validateStrategy rejects unsupported combinations: the alternative
// strategies are implemented for the TCP receive path, where the paper's
// comparison question lives.
func validateStrategy(cfg *Config) error {
	if cfg.Strategy == StrategyPacket {
		return nil
	}
	if cfg.Proto != ProtoTCP || cfg.Side != SideRecv {
		return errors.New("core: connection-level and layered strategies are implemented for TCP receive")
	}
	if cfg.Ticketing {
		return errors.New("core: ticketing is a packet-level mechanism (the other strategies preserve order by construction)")
	}
	return nil
}

// handoffCap bounds each handoff queue (back-pressure).
const handoffCap = 32

// runConnectionLevel spawns the connection-level worker threads: every
// processor takes arrivals off the shared wire, produces the packet,
// and hands it to the owning processor's per-connection queue; each
// processor drains its own connections' queues and runs the full
// protocol stack for them.
func (s *Stack) runConnectionLevel(t *sim.Thread) {
	cfg := &s.Cfg
	conns := cfg.Connections
	queues := make([]*sim.Queue, conns)
	prodLocks := make([]*sim.Mutex, conns)
	for c := range queues {
		queues[c] = sim.NewQueue(fmt.Sprintf("conn%d", c), handoffCap)
		prodLocks[c] = &sim.Mutex{Name: fmt.Sprintf("putq%d", c)}
	}
	s.handoffQs = queues

	var arrivals sim.Counter
	for p := 0; p < cfg.Procs; p++ {
		p := p
		s.Eng.Spawn(fmt.Sprintf("connlvl%d", p), p, func(wt *sim.Thread) {
			s.connWorker(wt, p, queues, prodLocks, &arrivals)
		})
	}
}

func (s *Stack) connWorker(t *sim.Thread, p int, queues []*sim.Queue, prodLocks []*sim.Mutex, arrivals *sim.Counter) {
	cfg := &s.Cfg
	conns := cfg.Connections
	for !s.stop.Get() {
		progress := false
		// Service one packet from a connection this processor owns:
		// all protocol processing for a connection happens here.
		for c := p; c < conns; c += cfg.Procs {
			if item, ok := queues[c].TryDequeue(t); ok {
				s.strategyErr("connection-level inject", s.tcpSend.Inject(t, item.(*msg.Message)))
				progress = true
				break
			}
		}
		// Take one arrival off the shared wire and put it on the
		// owner's queue. Sequence assignment and enqueue happen
		// atomically under the connection's producer ("putq") lock, so
		// per-connection order is preserved by construction — the
		// property connection-level parallelism buys. Everything here
		// is non-blocking: a closed window or full queue must never
		// stop this worker from draining its own connections, or the
		// handoff queues could deadlock in a cycle.
		n := arrivals.Add(t, 1)
		c := int(n) % conns
		prodLocks[c].Acquire(t)
		if queues[c].Len() < handoffCap {
			m, ok, err := s.tcpSend.TryProduce(t, c)
			if err != nil {
				prodLocks[c].Release(t)
				s.fail(fmt.Errorf("core: connection-level produce: %w", err))
				return
			}
			if ok {
				// Only producers enqueue, and they hold the putq
				// lock, so the room just checked cannot vanish; a
				// refusal means the queue was closed at teardown.
				if !queues[c].TryEnqueue(t, m) {
					m.Free(t)
					prodLocks[c].Release(t)
					return
				}
				progress = true
			}
		}
		prodLocks[c].Release(t)
		if !progress {
			t.Sleep(100_000)
		}
	}
}

// ---- layered parallelism ----

// queueUpper is the protocol-boundary shim: it terminates a layer's
// upward dispatch by parking the message on the next stage's queue.
type queueUpper struct {
	ref sim.RefCount
	q   *sim.Queue
}

func newQueueUpper(q *sim.Queue, mode sim.RefMode) *queueUpper {
	u := &queueUpper{q: q}
	u.ref.Init(mode, 1)
	return u
}

func (u *queueUpper) Demux(t *sim.Thread, m *msg.Message) error {
	if !u.q.Enqueue(t, m) {
		m.Free(t)
	}
	return nil
}

func (u *queueUpper) Ref() *sim.RefCount { return &u.ref }

// queueReceiver parks transport deliveries for the application stage.
type queueReceiver struct {
	q *sim.Queue
}

func (r *queueReceiver) Receive(t *sim.Thread, m *msg.Message) error {
	if !r.q.Enqueue(t, m) {
		m.Free(t)
	}
	return nil
}

// layerGroups partitions the four pipeline stages (driver+MAC, IP, TCP,
// application) into min(procs, 4) contiguous groups; a queue sits at
// each group boundary. With one processor the pipeline degenerates to
// synchronous processing; processors beyond four idle — the layered
// strategy's structural ceiling.
func layerGroups(procs int) [][]int {
	switch {
	case procs <= 1:
		return [][]int{{0, 1, 2, 3}}
	case procs == 2:
		return [][]int{{0, 1}, {2, 3}}
	case procs == 3:
		return [][]int{{0, 1}, {2}, {3}}
	default:
		return [][]int{{0}, {1}, {2}, {3}}
	}
}

// boundaryAfter reports whether a queue separates stage st from st+1
// under the given grouping.
func boundaryAfter(groups [][]int, st int) bool {
	for _, g := range groups {
		if g[len(g)-1] == st {
			return st < 3
		}
	}
	return false
}

// wireLayered installs the stage-boundary shims. Called from setup
// before connections open, so the demux bindings land on the shims.
func (s *Stack) wireLayered(t *sim.Thread) error {
	groups := layerGroups(s.Cfg.Procs)
	s.layerGroups = groups
	if boundaryAfter(groups, 0) {
		s.q1 = sim.NewQueue("fddi->ip", handoffCap)
		if err := s.FDDI.OpenEnable(t, etherTypeIP, newQueueUpper(s.q1, s.Cfg.RefMode)); err != nil {
			return err
		}
	} else {
		if err := s.FDDI.OpenEnable(t, etherTypeIP, s.IP); err != nil {
			return err
		}
	}
	if boundaryAfter(groups, 1) {
		s.q2 = sim.NewQueue("ip->tcp", handoffCap)
		if err := s.IP.OpenEnable(t, protoTCP, newQueueUpper(s.q2, s.Cfg.RefMode)); err != nil {
			return err
		}
	} else {
		if err := s.IP.OpenEnable(t, protoTCP, s.TCP); err != nil {
			return err
		}
	}
	// The TCP->app boundary is wired per-TCB in setup via layeredSink.
	if boundaryAfter(groups, 2) {
		s.q3 = sim.NewQueue("tcp->app", handoffCap)
	}
	return nil
}

// runLayered spawns one thread per stage group.
func (s *Stack) runLayered(t *sim.Thread) {
	groups := s.layerGroups
	for gi, g := range groups {
		gi, g := gi, g
		s.Eng.Spawn(fmt.Sprintf("stage%d", gi), gi, func(wt *sim.Thread) {
			s.layerWorker(wt, g)
		})
	}
}

// layerWorker runs one stage group: the group containing stage 0 is the
// producer; the others consume their inbound boundary queue and run
// their layers' entry point. Processing within a group is synchronous —
// the queues exist only at group boundaries.
func (s *Stack) layerWorker(t *sim.Thread, stages []int) {
	switch stages[0] {
	case 0:
		// Producer: generate arrivals and push them into the MAC layer;
		// the stack runs synchronously until it hits a boundary shim.
		conns := s.Cfg.Connections
		var n int64
		for !s.stop.Get() {
			c := int(n) % conns
			n++
			m, ok, err := s.tcpSend.Produce(t, c, &s.stop)
			if err != nil {
				s.fail(fmt.Errorf("core: layered produce: %w", err))
				return
			}
			if !ok {
				return
			}
			s.strategyErr("layered inject", s.tcpSend.Inject(t, m))
		}
	case 1:
		for {
			item, ok := s.q1.Dequeue(t)
			if !ok {
				return
			}
			s.strategyErr("layered IP stage", s.IP.Demux(t, item.(*msg.Message)))
		}
	case 2:
		for {
			item, ok := s.q2.Dequeue(t)
			if !ok {
				return
			}
			s.strategyErr("layered TCP stage", s.TCP.Demux(t, item.(*msg.Message)))
		}
	case 3:
		for {
			item, ok := s.q3.Dequeue(t)
			if !ok {
				return
			}
			s.strategyErr("layered app stage", s.Sink.Receive(t, item.(*msg.Message)))
		}
	}
}

// xkernel protocol numbers used by the layered wiring.
const (
	etherTypeIP = 0x0800
	protoTCP    = 6
)

var _ xkernel.Upper = (*queueUpper)(nil)
var _ xkernel.Receiver = (*queueReceiver)(nil)
