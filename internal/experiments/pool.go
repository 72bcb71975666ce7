package experiments

// Worker-pool scheduler for the experiment harness. Every sweep point,
// curve variant and repeat run is an independent simulation — it owns
// its engine and seed — so the runner fans them across host OS threads
// and collects results in deterministic submission order. This is
// the paper's own lesson applied to the harness itself: independent
// work units scale, a serialized runner does not (Section 4.3).
//
// Determinism: a job's result depends only on its Config and the
// methodology parameters, never on scheduling; results are awaited (and
// errors selected) in submission order; and aggregation across repeat
// runs walks run-indexed slots in run order, performing bit-identical
// floating-point arithmetic to the sequential path. Output with
// Workers=N is therefore byte-identical to Workers=1.

import (
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/sim"
)

// workers resolves the host worker-thread count (0 means GOMAXPROCS).
func (p Params) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// slots is a counting semaphore bounding concurrently executing
// simulations. Pools of the same width share one semaphore process-wide
// so nested and interleaved submissions cannot oversubscribe the host.
var (
	slotsMu sync.Mutex
	slotTab = map[int]chan struct{}{}
)

func workerSlots(n int) chan struct{} {
	if n < 1 {
		n = 1
	}
	slotsMu.Lock()
	defer slotsMu.Unlock()
	s, ok := slotTab[n]
	if !ok {
		s = make(chan struct{}, n)
		slotTab[n] = s
	}
	return s
}

// future is one pending job's result slot.
type future[T any] struct {
	v    T
	err  error
	done chan struct{}
}

// submit runs fn on a pooled worker and returns its future. fn runs
// with a worker slot held.
func submit[T any](slots chan struct{}, fn func() (T, error)) *future[T] {
	f := &future[T]{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		slots <- struct{}{}
		defer func() { <-slots }()
		f.v, f.err = fn()
	}()
	return f
}

// wait blocks until the job completes.
func (f *future[T]) wait() (T, error) {
	<-f.done
	return f.v, f.err
}

// pointValue is one measured configuration point.
type pointValue struct {
	res measure.Result
	agg core.RunResult
}

type pointFuture = future[pointValue]

// submitPoint schedules one configuration point: its repeat runs fan
// out individually (each is an independent engine with its own seed)
// and are aggregated in run order once all complete.
func submitPoint(cfg core.Config, p Params) *pointFuture {
	slots := workerSlots(p.workers())
	if cfg.Backend == sim.BackendHost {
		// Host-backend runs measure wall-clock time on real goroutines;
		// concurrent runs would time-share the processors and corrupt
		// each other's windows, so they execute one at a time no matter
		// how wide the pool is.
		slots = workerSlots(1)
	}
	cfgs := core.RunConfigs(cfg, p.Runs)
	runFuts := make([]*future[core.RunResult], len(cfgs))
	for i, c := range cfgs {
		c := c
		runFuts[i] = submit(slots, func() (core.RunResult, error) {
			return core.RunPoint(c, p.WarmupNs, p.MeasureNs)
		})
	}
	f := &pointFuture{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		rrs := make([]core.RunResult, len(runFuts))
		for i, rf := range runFuts {
			rr, err := rf.wait()
			if err != nil && f.err == nil {
				f.err = err // first run's error, deterministically
			}
			rrs[i] = rr
		}
		if f.err != nil {
			return
		}
		f.v.res, f.v.agg = core.AggregateRuns(rrs)
	}()
	return f
}

// awaitPoints waits for pending points in submission order, so the
// error returned is the first in that order whatever ran first.
func awaitPoints(futs []*pointFuture) ([]pointValue, error) {
	pts := make([]pointValue, len(futs))
	for i, f := range futs {
		pv, err := f.wait()
		if err != nil {
			return nil, err
		}
		pts[i] = pv
	}
	return pts, nil
}

// RunPoints measures each configuration with the given methodology,
// fanning points and repeat runs across at most workers host threads
// (0 means GOMAXPROCS). Results return in input order and are
// byte-identical to a sequential loop that runs each configuration's
// core.RunConfigs through core.RunPoint and summarizes them with
// core.AggregateRuns. It backs parnet.Sweep.
func RunPoints(cfgs []core.Config, warmupNs, measureNs int64, runs, workers int) ([]measure.Result, []core.RunResult, error) {
	p := Params{WarmupNs: warmupNs, MeasureNs: measureNs, Runs: runs, Workers: workers}
	futs := make([]*pointFuture, len(cfgs))
	for i, c := range cfgs {
		futs[i] = submitPoint(c, p)
	}
	pts, err := awaitPoints(futs)
	if err != nil {
		return nil, nil, err
	}
	sums := make([]measure.Result, len(cfgs))
	aggs := make([]core.RunResult, len(cfgs))
	for i, pv := range pts {
		sums[i] = pv.res
		aggs[i] = pv.agg
	}
	return sums, aggs, nil
}
