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

	"repro/internal/driver"
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
// processor takes arrivals off the shared wire (the peer d), produces
// the packet, and hands it to the owning processor's per-connection
// queue; each processor drains its own connections' queues and runs the
// full protocol stack for them.
func (s *Stack) runConnectionLevel(d *driver.SimTCPSender) {
	cfg := &s.Cfg
	conns := cfg.Connections
	queues := make([]*sim.Queue, conns)
	prodLocks := make([]*sim.Lock, conns)
	for c := range queues {
		queues[c] = sim.NewQueue(fmt.Sprintf("conn%d", c), handoffCap)
		prodLocks[c] = &sim.Lock{Name: fmt.Sprintf("putq%d", c)}
	}
	s.sh.queues = queues

	var arrivals sim.Counter
	for p := 0; p < cfg.Procs; p++ {
		p := p
		s.Eng.Spawn(fmt.Sprintf("connlvl%d", p), p, func(wt *sim.Thread) {
			s.connWorker(wt, p, d, queues, prodLocks, &arrivals)
		})
	}
}

func (s *Stack) connWorker(t *sim.Thread, p int, d *driver.SimTCPSender, queues []*sim.Queue, prodLocks []*sim.Lock, arrivals *sim.Counter) {
	cfg := &s.Cfg
	conns := cfg.Connections
	for !s.stop.Get() {
		progress := false
		// Service one packet from a connection this processor owns:
		// all protocol processing for a connection happens here.
		for c := p; c < conns; c += cfg.Procs {
			if item, ok := queues[c].TryDequeue(t); ok {
				s.strategyErr("connection-level inject", d.Inject(t, item.(*msg.Message)))
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
			m, ok, err := d.TryProduce(t, c)
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

// queueReceiver parks transport deliveries for the application stage;
// one the closed queue refuses at teardown goes to undelivered.
type queueReceiver struct{ s *Stack }

func (r *queueReceiver) Receive(t *sim.Thread, m *msg.Message) error {
	if !r.s.q3.Enqueue(t, m) {
		r.s.undelivered(t, m)
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

// layerShims builds the stage-boundary queues and puts a shim in the
// place of each boundary's upper layer: ipUp above FDDI, tcpUp above IP,
// appUp above TCP. Set-up binds and opens connections on what it
// returns, so the layer below a boundary parks its messages on the next
// stage's queue.
func (s *Stack) layerShims(ipUp, tcpUp xkernel.Upper, appUp xkernel.Receiver) (xkernel.Upper, xkernel.Upper, xkernel.Receiver) {
	groups := layerGroups(s.Cfg.Procs)
	s.layerGroups = groups
	if boundaryAfter(groups, 0) {
		s.q1 = s.handoffQueue("fddi->ip")
		ipUp = newQueueUpper(s.q1, s.Cfg.RefMode)
	}
	if boundaryAfter(groups, 1) {
		s.q2 = s.handoffQueue("ip->tcp")
		tcpUp = newQueueUpper(s.q2, s.Cfg.RefMode)
	}
	if boundaryAfter(groups, 2) {
		s.q3 = s.handoffQueue("tcp->app")
		appUp = &queueReceiver{s}
	}
	return ipUp, tcpUp, appUp
}

// handoffQueue builds a stage-boundary queue for teardown to drain.
func (s *Stack) handoffQueue(name string) *sim.Queue {
	q := sim.NewQueue(name, handoffCap)
	s.sh.queues = append(s.sh.queues, q)
	return q
}

// runLayered spawns one thread per stage group, the producer's over the
// peer d.
func (s *Stack) runLayered(d *driver.SimTCPSender) {
	groups := s.layerGroups
	for gi, g := range groups {
		gi, g := gi, g
		s.Eng.Spawn(fmt.Sprintf("stage%d", gi), gi, func(wt *sim.Thread) {
			s.layerWorker(wt, g, d)
		})
	}
}

// layerWorker runs one stage group: the group containing stage 0 is the
// producer; the others consume their inbound boundary queue and run
// their layers' entry point. Processing within a group is synchronous —
// the queues exist only at group boundaries.
func (s *Stack) layerWorker(t *sim.Thread, stages []int, d *driver.SimTCPSender) {
	switch stages[0] {
	case 0:
		// Producer: generate arrivals and push them into the MAC layer;
		// the stack runs synchronously until it hits a boundary shim.
		conns := s.Cfg.Connections
		var n int64
		for !s.stop.Get() {
			c := int(n) % conns
			n++
			m, ok, err := d.Produce(t, c, &s.stop, 0)
			if err != nil {
				s.fail(fmt.Errorf("core: layered produce: %w", err))
				return
			}
			if !ok {
				return
			}
			s.strategyErr("layered inject", d.Inject(t, m))
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

var _ xkernel.Upper = (*queueUpper)(nil)
var _ xkernel.Receiver = (*queueReceiver)(nil)
