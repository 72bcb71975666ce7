package tcp

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cost"
	"repro/internal/event"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/xkernel"
)

// withTimers runs a harness body with a live event wheel and protocol
// timers, shutting everything down afterwards.
func withTimers(t *testing.T, seed uint64, cfg Config, w *wire, body func(th *sim.Thread, h *harness)) {
	t.Helper()
	e := sim.New(cost.NewModel(cost.Challenge100), seed)
	wheel := event.New()
	wheel.Start(e, 0)
	e.Spawn("test", 1, func(th *sim.Thread) {
		h := build(t, th, cfg, w, wheel)
		// Teardown must run even when body fails via t.Fatal (Goexit),
		// or the wheel thread ticks forever and the engine never exits.
		defer func() {
			h.pa.StopTimers()
			h.pb.StopTimers()
			wheel.Stop()
		}()
		body(th, h)
	})
	e.Run()
}

func TestTimeWaitExpiresVia2MSL(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checksum = ChecksumEnforce
	withTimers(t, 21, cfg, &wire{}, func(th *sim.Thread, h *harness) {
		h.send(t, th, pattern(128, 1))
		if err := h.tcbA.Close(th); err != nil {
			t.Fatal(err)
		}
		if err := h.tcbB.Close(th); err != nil {
			t.Fatal(err)
		}
		if h.tcbA.State() != "TIME_WAIT" {
			t.Fatalf("A state = %s, want TIME_WAIT", h.tcbA.State())
		}
		// 2MSL is 30 virtual seconds; wait past it.
		th.Sleep(35_000_000_000)
		if h.tcbA.State() != "CLOSED" {
			t.Fatalf("A state = %s after 2MSL, want CLOSED", h.tcbA.State())
		}
	})
}

func TestRTTEstimatorConverges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checksum = ChecksumOff
	withTimers(t, 22, cfg, &wire{}, func(th *sim.Thread, h *harness) {
		for i := 0; i < 20; i++ {
			h.send(t, th, pattern(1024, 1))
			th.Sleep(5_000_000) // pace the transfer
		}
		h.tcbA.lockAll(th)
		srtt := h.tcbA.srtt
		h.tcbA.unlockAll(th)
		if srtt <= 0 {
			t.Fatal("no RTT samples taken")
		}
		// The in-memory round trip is well under a virtual second.
		if srtt > 1_000_000_000 {
			t.Fatalf("srtt = %d ns, implausibly large", srtt)
		}
	})
}

func TestRetransmitBackoffGivesUp(t *testing.T) {
	// A wire that drops every data segment forever: the sender must
	// retransmit with exponential backoff and eventually reset the
	// connection.
	if testing.Short() {
		t.Skip("simulates many virtual minutes of backoff")
	}
	cfg := DefaultConfig()
	cfg.Checksum = ChecksumOff
	w := &wire{onData: always(drop)}
	withTimers(t, 23, cfg, w, func(th *sim.Thread, h *harness) {
		m, _ := h.alloc.New(th, 64, msg.Headroom)
		if err := h.tcbA.Push(th, m); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200 && h.tcbA.State() != "CLOSED"; i++ {
			th.Sleep(10_000_000_000)
		}
		if h.pa.Stats().Rexmt < 3 {
			t.Fatalf("rexmt = %d, want repeated backoff", h.pa.Stats().Rexmt)
		}
		if h.tcbA.State() != "CLOSED" {
			t.Fatalf("state = %s, want CLOSED after giving up", h.tcbA.State())
		}
	})
}

// TestSlowTimerCountsDownAllConnections plants deadlines by hand on
// both ends and verifies the slow heartbeat drives each protocol's
// wheel to them: two and three slow ticks out, no sooner.
func TestSlowTimerCountsDownAllConnections(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checksum = ChecksumOff
	withTimers(t, 24, cfg, &wire{}, func(th *sim.Thread, h *harness) {
		for i, tcb := range []*TCB{h.tcbA, h.tcbB} {
			tcb.lockAll(th)
			tcb.state = stateTimeWait
			tcb.setTimer(th, timer2MSL, 2+i)
			if want := tcb.p.SlowTicks() + int64(2+i); tcb.timerDeadline[timer2MSL] != want {
				t.Errorf("planted deadline %d, want slow tick %d", tcb.timerDeadline[timer2MSL], want)
			}
			tcb.unlockAll(th)
		}
		th.SleepUntil(2*slowTick - slowTick/2)
		if a, b := h.tcbA.State(), h.tcbB.State(); a != "TIME_WAIT" || b != "TIME_WAIT" {
			t.Fatalf("states = %s, %s after one slow tick, want both still TIME_WAIT", a, b)
		}
		th.Sleep(2_000_000_000)
		if a, b := h.tcbA.State(), h.tcbB.State(); a != "CLOSED" || b != "CLOSED" {
			t.Fatalf("states = %s, %s, want both CLOSED after the planted 2MSL", a, b)
		}
	})
}

// timerEvent is one observed slow-timer expiry.
type timerEvent struct {
	side  string
	which int
	tick  int64
}

// scanOracle is the BSD slow scan (tcp_slowtimo walking every
// connection), kept as the reference the wheel is checked against: at
// the top of each slow heartbeat it walks the connections the scenario
// opened (track), skipping closed ones as BSD's walk of the bound ones
// would, and predicts that exactly the timers whose deadline has come
// expire on this tick. A lost timer stays overdue and is predicted
// again; an early or duplicated one is observed without a prediction.
type scanOracle struct {
	t         *testing.T
	side      string
	conns     []*TCB        // every connection opened on this side
	want, got []string      // this tick's predicted and observed expiries
	log       *[]timerEvent // every expiry, in firing order
}

// track adds connections to the scan; a recycled block is kept once.
func (o *scanOracle) track(tcbs ...*TCB) {
	for _, tcb := range tcbs {
		if !slices.Contains(o.conns, tcb) {
			o.conns = append(o.conns, tcb)
		}
	}
}

func attachScanOracle(t *testing.T, p *Protocol, side string, log *[]timerEvent) *scanOracle {
	o := &scanOracle{t: t, side: side, log: log}
	p.tickLog = func(_ *sim.Thread, tick int64) {
		o.check()
		for _, tcb := range o.conns {
			if tcb.state == stateClosed {
				continue
			}
			for which, d := range tcb.timerDeadline {
				if d != 0 && d <= tick {
					o.want = append(o.want, fmt.Sprint(tcb.part.LocalPort, which, tick))
				}
			}
		}
	}
	p.timerLog = func(tcb *TCB, which int, tick int64) {
		if tcb.state == stateClosed {
			t.Errorf("%s: timer %d fired on a closed connection at tick %d", side, which, tick)
		}
		o.got = append(o.got, fmt.Sprint(tcb.part.LocalPort, which, tick))
		*o.log = append(*o.log, timerEvent{side, which, tick})
	}
	return o
}

// check compares the finished tick's expiries with the scan's
// prediction, as sets: the scan walks in map order, the wheel pops in
// slot order. Call once more after the last heartbeat.
func (o *scanOracle) check() {
	slices.Sort(o.want)
	slices.Sort(o.got)
	if !slices.Equal(o.want, o.got) {
		o.t.Errorf("%s: wheel fired (port timer tick) %v, the scan predicts %v", o.side, o.got, o.want)
	}
	o.want, o.got = o.want[:0], o.got[:0]
}

// timerScenario is one scripted shape, with what the BSD scan timers
// produced for the same script at commit 0645913, the last tree that
// had them: the (side, timer, slow tick) expiry log and the number of
// messages delivered.
type timerScenario struct {
	name      string
	wire      func() *wire
	script    func(t *testing.T, th *sim.Thread, h *harness)
	scan      []timerEvent
	delivered int
}

// timerScenarios cover retransmit (single loss, and persistent loss
// backing off to the limit), the 2MSL reaper behind an orderly close,
// and directly armed timers: both re-arm directions (the
// deadline-shortening re-arm touches the wheel eagerly, the lengthening
// one relies on the parked node lazily re-arming itself) and clear.
func timerScenarios() []timerScenario {
	return []timerScenario{
		{
			name: "rexmt-single-loss",
			wire: func() *wire { return &wire{onData: nth(1, drop)} },
			script: func(t *testing.T, th *sim.Thread, h *harness) {
				h.send(t, th, pattern(1024, 3))
				th.Sleep(10 * slowTick)
			},
			scan:      []timerEvent{{"A", timerRexmt, 2}},
			delivered: 1,
		},
		{
			name: "rexmt-backoff",
			wire: func() *wire { return &wire{onData: always(drop)} },
			script: func(t *testing.T, th *sim.Thread, h *harness) {
				h.send(t, th, pattern(512, 5))
				th.Sleep(1100 * slowTick)
				if h.tcbA.State() != "CLOSED" {
					t.Errorf("state = %s, want CLOSED at the retransmit limit", h.tcbA.State())
				}
			},
			// Thirteen timerRexmt expiries; the last one gives up.
			scan: []timerEvent{{"A", 0, 2}, {"A", 0, 6}, {"A", 0, 14}, {"A", 0, 30}, {"A", 0, 62},
				{"A", 0, 126}, {"A", 0, 254}, {"A", 0, 382}, {"A", 0, 510}, {"A", 0, 638},
				{"A", 0, 766}, {"A", 0, 894}, {"A", 0, 1022}},
		},
		{
			name: "close-2msl",
			wire: func() *wire { return &wire{} },
			script: func(t *testing.T, th *sim.Thread, h *harness) {
				h.send(t, th, pattern(1024, 7))
				if err := h.tcbA.Close(th); err != nil {
					t.Fatal(err)
				}
				if err := h.tcbB.Close(th); err != nil {
					t.Fatal(err)
				}
				th.Sleep((msl2Ticks + 10) * slowTick)
			},
			scan:      []timerEvent{{"A", timer2MSL, 60}},
			delivered: 1,
		},
		{
			name: "direct-arm-and-rearm",
			wire: func() *wire { return &wire{} },
			script: func(t *testing.T, th *sim.Thread, h *harness) {
				// Persist fires once (window open, so it does not re-arm);
				// keepalive expiry is a no-op, so it is safe to script.
				h.tcbA.BenchArmTimer(th, timerPersist, 3)
				h.tcbB.BenchArmTimer(th, timerKeep, 5)
				// Lengthen: parked wheel node must lazily re-arm.
				h.tcbA.BenchArmTimer(th, timerKeep, 4)
				h.tcbA.BenchArmTimer(th, timerKeep, 20)
				// Shorten: wheel node must move eagerly.
				h.tcbB.BenchArmTimer(th, timerPersist, 30)
				h.tcbB.BenchArmTimer(th, timerPersist, 2)
				// Clear: the parked node must pop as a no-op, or, when the
				// timer is armed again first, re-arm at the new deadline.
				h.tcbB.BenchArmTimer(th, timer2MSL, 6)
				h.tcbB.BenchArmTimer(th, timer2MSL, 0)
				h.tcbA.BenchArmTimer(th, timer2MSL, 6)
				h.tcbA.BenchArmTimer(th, timer2MSL, 0)
				h.tcbA.BenchArmTimer(th, timer2MSL, 9)
				th.Sleep(40 * slowTick)
			},
			scan: []timerEvent{{"B", timerPersist, 2}, {"A", timerPersist, 3}, {"B", timerKeep, 5},
				{"A", timer2MSL, 9}, {"A", timerKeep, 20}},
		},
	}
}

// TestTimerEquivalenceScanVsWheel: the wheel must fire the same (side,
// which) expiries at the same slow-tick indices as the scan-driven
// timers it replaced — against their recorded logs, and tick by tick
// against the scan oracle.
func TestTimerEquivalenceScanVsWheel(t *testing.T) {
	for _, sc := range timerScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			var events []timerEvent
			delivered := -1
			run1(t, 11, func(th *sim.Thread) {
				ew := event.New()
				ew.Start(th.Engine(), 0)
				h := build(t, th, DefaultConfig(), sc.wire(), ew)
				oa := attachScanOracle(t, h.pa, "A", &events)
				ob := attachScanOracle(t, h.pb, "B", &events)
				oa.track(h.tcbA)
				ob.track(h.tcbB)
				sc.script(t, th, h)
				delivered = len(h.sink.payloads)
				h.pa.StopTimers()
				h.pb.StopTimers()
				ew.Stop()
				oa.check()
				ob.check()
			})
			if delivered != sc.delivered {
				t.Errorf("delivered %d messages, %d under the scan", delivered, sc.delivered)
			}
			if !slices.Equal(events, sc.scan) {
				t.Errorf("expiry logs differ:\n scan (recorded): %v\n wheel:           %v", sc.scan, events)
			}
		})
	}
}

// TestWheelChurnCancelledTimersNeverFire churns connections through
// open / transfer / close on one protocol pair: a stale wheel node
// surviving a drop would fire on a closed (possibly recycled)
// connection block. The oracle's log hook fails the test if any slow
// timer expires on a closed connection, the reaped blocks must come
// back through the free list, and the wheels must be empty when the
// churn ends.
func TestWheelChurnCancelledTimersNeverFire(t *testing.T) {
	run1(t, 13, func(th *sim.Thread) {
		ew := event.New()
		ew.Start(th.Engine(), 0)
		cfg := DefaultConfig()
		w := &wire{}
		pa, pb := connect(cfg, w, ew)
		alloc := w.alloc
		pa.StartTimers(th)
		pb.StartTimers(th)
		var events []timerEvent
		scanA := attachScanOracle(t, pa, "A", &events)
		scanB := attachScanOracle(t, pb, "B", &events)

		const rounds = 12
		blocks := map[*TCB]bool{}
		for i := 0; i < rounds; i++ {
			part := xkernel.Part{
				LocalIP: hostA, RemoteIP: hostB,
				LocalPort: uint16(1000 + i), RemotePort: uint16(2000 + i),
			}
			tcbB, err := pb.OpenEnable(th, part.Swap(), &recvSink{})
			if err != nil {
				t.Fatal(err)
			}
			tcbA, err := pa.Open(th, part, &recvSink{})
			if err != nil {
				t.Fatal(err)
			}
			blocks[tcbA] = true
			scanA.track(tcbA)
			scanB.track(tcbB)
			m, err := alloc.New(th, 1024, msg.Headroom)
			if err != nil {
				t.Fatal(err)
			}
			if err := tcbA.Push(th, m); err != nil {
				t.Fatal(err)
			}
			// A far-out keepalive the close path must cancel.
			tcbA.BenchArmTimer(th, timerKeep, 10_000)
			if err := tcbA.Close(th); err != nil {
				t.Fatal(err)
			}
			if err := tcbB.Close(th); err != nil {
				t.Fatal(err)
			}
			// The active closer sits in TIME_WAIT for 2MSL; ride past it
			// so the reaper recycles the block before the next round.
			th.Sleep((msl2Ticks + 5) * slowTick)
		}
		pa.StopTimers()
		pb.StopTimers()
		ew.Stop()
		scanA.check()
		scanB.check()

		if len(events) != rounds {
			t.Errorf("%d expiries, want the active closer's 2MSL once a round (%d): %v", len(events), rounds, events)
		}
		if len(blocks) != 1 || len(pa.tcbFree) != 1 {
			t.Errorf("%d TIME_WAIT reaps used %d connection blocks and left %d free, want 1 and 1: the reaper is not recycling",
				rounds, len(blocks), len(pa.tcbFree))
		}
		if n := pa.tw.Pending(); n != 0 {
			t.Errorf("client wheel still holds %d armed nodes after churn", n)
		}
		if n := pb.tw.Pending(); n != 0 {
			t.Errorf("server wheel still holds %d armed nodes after churn", n)
		}
	})
}

// TestTimerArmedAccessors pins the accessors the data path uses: a
// timer reads idle at birth, armed once set, idle once cleared — and a
// clear leaves the node parked for the slow heartbeat to retire.
func TestTimerArmedAccessors(t *testing.T) {
	run1(t, 17, func(th *sim.Thread) {
		p, tcbs := NewBench(th, DefaultConfig(), msg.NewAllocator(msg.DefaultConfig(1)), 1)
		tcb := tcbs[0]
		if tcb.timerArmed(timerRexmt) {
			t.Error("timer armed at birth")
		}
		tcb.BenchArmTimer(th, timerRexmt, 4)
		if !tcb.timerArmed(timerRexmt) {
			t.Error("armed timer reads idle")
		}
		tcb.locks.lockState(th)
		tcb.clearTimer(timerRexmt)
		tcb.locks.unlockState(th)
		if tcb.timerArmed(timerRexmt) {
			t.Error("cleared timer reads armed")
		}
		if n := p.tw.Pending(); n != 1 {
			t.Errorf("%d nodes parked after a clear, want 1 (clears stay off the wheel lock)", n)
		}
		for i := 0; i < 4; i++ {
			p.slowTimo(th)
		}
		if n := p.tw.Pending(); n != 0 || tcb.timerParked[timerRexmt] != 0 {
			t.Errorf("cleared node still parked after its slot passed (pending %d, parked at %d)", n, tcb.timerParked[timerRexmt])
		}
	})
}

// TestHostWheelArmAdvanceRace runs the wheel the way the host backend
// does: real goroutines extend, shorten and clear timers under their
// connections' state locks while the event goroutine advances the
// wheel. Each worker owns its connections and keeps, under the state
// lock, a shadow of what it armed; a deadline it finds zeroed was fired
// by the heartbeat, and the k-th such observation must match the k-th
// logged expiry of that timer: not before its deadline, not after it
// (or, where the arm itself raced past the deadline, the tick after the
// arm), never twice, and none left over. The workers also queue delayed
// acks the way input processing does, against the fast heartbeat: every
// one must be flushed. Run with -race.
func TestHostWheelArmAdvanceRace(t *testing.T) {
	const workers, perWorker, ops = 4, 8, 3000
	const wheelSlots = 64               // ticks spanned by the wheel's first level
	type armed struct{ d, after int64 } // deadline, and SlowTicks once armed
	type shadow struct {
		cur   armed   // d == 0: idle
		fired []armed // what each expiry the worker noticed had been armed as
		ticks []int64 // logged expiry ticks (event goroutine)
	}
	var shadows [workers * perWorker][nTimers]shadow
	index := map[*TCB]int{}
	// notice moves a timer the heartbeat has fired since the worker last
	// looked from cur to fired. Under the state lock, or after the run.
	notice := func(tcb *TCB, which int) *shadow {
		s := &shadows[index[tcb]][which]
		switch got := tcb.timerDeadline[which]; {
		case got == s.cur.d:
		case got == 0:
			s.fired = append(s.fired, s.cur)
			s.cur = armed{}
		default:
			t.Errorf("conn %d timer %d: deadline %d, the worker armed %d", index[tcb], which, got, s.cur.d)
		}
		return s
	}

	e := sim.NewBackend(cost.NewModel(cost.Challenge100), 1, sim.BackendHost)
	var p *Protocol
	var tcbs []*TCB
	ready := make(chan struct{})
	var working sync.WaitGroup
	working.Add(workers)
	var owed atomic.Int64 // delayed acks queued
	e.Spawn("event", workers, func(th *sim.Thread) {
		p, tcbs = NewBench(th, DefaultConfig(), msg.NewAllocator(msg.DefaultConfig(1)), workers*perWorker)
		for i, tcb := range tcbs {
			index[tcb] = i
			tcb.sndWnd = 1 // or the persist timeout re-arms itself
		}
		p.timerLog = func(tcb *TCB, which int, tick int64) {
			s := &shadows[index[tcb]][which]
			s.ticks = append(s.ticks, tick)
		}
		close(ready)
		done := make(chan struct{})
		go func() { working.Wait(); close(done) }()
		for flush := 0; flush < 2*wheelSlots; {
			p.fastTimo(th)
			p.slowTimo(th)
			runtime.Gosched()
			select {
			case <-done:
				flush++ // the workers are gone: run every parked node out
			default:
			}
		}
	})
	for w := 0; w < workers; w++ {
		e.Spawn(fmt.Sprint("worker", w), w, func(th *sim.Thread) {
			defer working.Done()
			<-ready
			rng := rand.New(rand.NewSource(int64(w)))
			// Mostly near deadlines, so expiries race the arms; the far
			// ones park on the second wheel level and get shortened.
			spans := []int{1, 1, 2, 3, 5, 8, wheelSlots + 6}
			for i := 0; i < ops; i++ {
				if i%4 == 0 {
					// Pace the arms to the heartbeat: a few per tick.
					for last := p.SlowTicks(); p.SlowTicks() == last; {
						runtime.Gosched()
					}
				}
				tcb := tcbs[w*perWorker+rng.Intn(perWorker)]
				which := rng.Intn(nTimers)
				tcb.locks.lockState(th)
				s := notice(tcb, which)
				if rng.Intn(8) == 0 {
					tcb.clearTimer(which)
					s.cur = armed{}
				} else {
					tcb.setTimer(th, which, spans[rng.Intn(len(spans))])
					s.cur = armed{tcb.timerDeadline[which], p.SlowTicks()}
				}
				if !tcb.delAckPnd && rng.Intn(4) == 0 {
					tcb.delAckPnd = true
					tcb.queueDelack(th)
					owed.Add(1)
				}
				tcb.locks.unlockState(th)
			}
		})
	}
	e.Run()

	expiries := 0
	for c, tcb := range tcbs {
		for which := range shadows[c] {
			s := notice(tcb, which)
			if s.cur.d != 0 {
				t.Errorf("conn %d timer %d: armed for tick %d, lost (the wheel ran to %d)", c, which, s.cur.d, p.SlowTicks())
			}
			if len(s.ticks) != len(s.fired) {
				t.Errorf("conn %d timer %d: %d expiries logged, %d deadlines zeroed", c, which, len(s.ticks), len(s.fired))
				continue
			}
			for k, a := range s.fired {
				if tick := s.ticks[k]; tick < a.d || tick > max(a.d, a.after+1) {
					t.Errorf("conn %d timer %d: armed for tick %d (at tick %d), fired at %d", c, which, a.d, a.after, tick)
				}
			}
			expiries += len(s.ticks)
		}
	}
	if expiries < ops/10 {
		t.Errorf("only %d expiries in %d operations: the heartbeat is not racing the arms", expiries, workers*ops)
	}
	if n := p.tw.Pending(); n != 0 {
		t.Errorf("%d nodes still parked after the flush", n)
	}
	if acks := p.Stats().AcksOut; acks != owed.Load() || acks == 0 {
		t.Errorf("fast heartbeat flushed %d delayed acks, the workers queued %d", acks, owed.Load())
	}
}
