package sim

// The host locks' accounting contract: Acquires, Contended and WaitNs
// count every acquisition; HoldNs times one hold in holdWeight, weights
// it holdWeight, and still lands on the true total.

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
)

func TestHostHoldSampleSpread(t *testing.T) {
	const span = 1 << 20
	for _, first := range []int64{1, 1 << 40} {
		for _, mod := range []int64{1, 2, 3, 4, 8} {
			picks := make([]int, mod)
			for n := first; n < first+span; n++ {
				if timedHold(n) {
					picks[n%mod]++
				}
			}
			want := float64(span) / float64(mod) / holdWeight
			for r, got := range picks {
				if math.Abs(float64(got)-want) > 0.03*want {
					t.Errorf("acquisitions %d.. ≡ %d mod %d: %d timed, want %.0f ± 3 %%", first, r, mod, got, want)
				}
			}
		}
	}
}

// statsOf is l's live LockStats, read without taking any lock of l's.
func statsOf(l Locker) *LockStats {
	switch l := l.(type) {
	case *Mutex:
		return &l.stats
	case *MCSLock:
		return &l.stats
	case *TicketLock:
		return &l.stats
	case *CountingLock:
		return statsOf(l.inner)
	}
	panic("statsOf: unknown lock")
}

// holdBody is the busy-wait length of a thread's i-th hold: short and
// long alternate, and every third is uniform in [0, 2·long).
func holdBody(rng *Rand, i int) int64 {
	const short, long = 1_000, 10_000
	switch {
	case i%3 == 0:
		return int64(rng.Intn(2 * long))
	case i%2 == 0:
		return short
	}
	return long
}

// holdReadings is what the threads of lockstepHolds saw of their holds,
// each reading taken just after Acquire and just before Release.
type holdReadings struct {
	all, timed int64 // every reading; the readings of timed holds
	// The same two sums with each reading cut to its body plus a
	// slack: the OS may take milliseconds from any hold, which a timed
	// hold counts holdWeight times and an untimed one not at all.
	allCut, timedCut int64
	nTimed           int64
	recorded         int64 // HoldNs added by the timed holds' releases
}

func (r *holdReadings) add(o holdReadings) {
	r.all += o.all
	r.timed += o.timed
	r.allCut += o.allCut
	r.timedCut += o.timedCut
	r.nTimed += o.nTimed
	r.recorded += o.recorded
}

// lockstepHolds has two host threads make holds holds each on l, in
// strict alternation: a holder keeps the lock until the other thread's
// acquire has been counted contended (or the other thread is done), so
// every acquisition but the first is, then busy-waits holdBody. Only
// the holder adds to HoldNs, so a change across its Release marks the
// hold as timed.
func lockstepHolds(l Locker, holds int) holdReadings {
	const slack = 50_000
	st := statsOf(l)
	var granted atomic.Int64 // acquisitions returned so far
	var done atomic.Int32    // threads finished
	var seen [2]holdReadings
	e := NewBackend(nil, 1, BackendHost)
	// A contention count that never comes ends the waiting at the
	// deadline and shows as a wrong Contended, not as a hang.
	deadline := e.host.now() + 60e9
	for p := 0; p < 2; p++ {
		e.Spawn(fmt.Sprintf("h%d", p), p, func(th *Thread) {
			defer done.Add(1)
			rng := NewRand(uint64(p) + 1)
			for i := 0; i < holds; i++ {
				d := holdBody(&rng, i)
				l.Acquire(th)
				in := th.Now()
				g := granted.Add(1)
				for spins := 0; atomic.LoadInt64(&st.Contended) < g && done.Load() == 0 && th.Now() < deadline; spins++ {
					hostSpin(spins)
				}
				for end := th.Now() + d; th.Now() < end; {
				}
				before := atomic.LoadInt64(&st.HoldNs)
				out := th.Now()
				l.Release(th)
				h := holdReadings{all: out - in, allCut: min(out-in, d+slack)}
				if w := atomic.LoadInt64(&st.HoldNs) - before; w != 0 {
					h.timed, h.timedCut, h.nTimed, h.recorded = h.all, h.allCut, 1, w
				}
				seen[p].add(h)
				for spins := 0; i+1 < holds && granted.Load() == g; spins++ {
					hostSpin(spins) // let the other thread take its turn
				}
			}
		})
	}
	e.Run()
	seen[0].add(seen[1])
	return seen[0]
}

func TestHostLockHoldEstimate(t *testing.T) {
	const holds = 20_000
	for _, c := range []struct {
		name string
		lock func() Locker
	}{
		{"mutex", func() Locker { return &Mutex{Name: "m"} }},
		{"mcs", func() Locker { return &MCSLock{Name: "m"} }},
		{"ticket", func() Locker { return &TicketLock{Name: "m"} }},
		{"counting-mutex", func() Locker { return NewCountingLock(KindMutex, "m") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := c.lock()
			r := lockstepHolds(l, holds)
			st := l.Stats()
			if st.Acquires != 2*holds || st.Contended != 2*holds-1 {
				t.Errorf("acquires %d, contended %d; want %d, %d", st.Acquires, st.Contended, 2*holds, 2*holds-1)
			}
			if st.WaitNs <= 0 {
				t.Errorf("wait %d ns over %d contended acquisitions", st.WaitNs, st.Contended)
			}
			if r.recorded != st.HoldNs {
				t.Errorf("releases added %d ns to HoldNs, which reads %d", r.recorded, st.HoldNs)
			}
			// The sample: the timed holds, weighted, land within 10 % of
			// all holds.
			if est := holdWeight * r.timedCut; math.Abs(float64(est-r.allCut)) > 0.1*float64(r.allCut) {
				t.Errorf("%d timed holds weighted sum to %d ns, all holds to %d ns (%+.1f %%)",
					r.nTimed, est, r.allCut, 100*float64(est-r.allCut)/float64(r.allCut))
			}
			// The timing: a timed hold adds holdWeight times a window that
			// contains the thread's reading and exceeds it only by the
			// lock's own bookkeeping (µs under the race detector).
			extra := r.recorded - holdWeight*r.timed
			if extra < 0 || extra > holdWeight*r.nTimed*20_000 {
				t.Errorf("timed holds recorded %d ns, holdWeight × their readings %d ns", r.recorded, holdWeight*r.timed)
			}
			t.Logf("HoldNs %d, threads' sum %d (%+.2f %%); %d holds timed, %d ns of bookkeeping each",
				st.HoldNs, r.all, 100*float64(st.HoldNs-r.all)/float64(r.all), r.nTimed, extra/holdWeight/max(r.nTimed, 1))

			l = c.lock()
			e := NewBackend(nil, 1, BackendHost)
			e.Spawn("h", 0, func(th *Thread) {
				for i := 0; i < 1000; i++ {
					l.Acquire(th)
					l.Release(th)
				}
			})
			e.Run()
			if st := l.Stats(); st.Acquires != 1000 || st.Contended != 0 || st.WaitNs != 0 {
				t.Errorf("one thread: acquires %d, contended %d, wait %d ns; want 1000, 0, 0", st.Acquires, st.Contended, st.WaitNs)
			}
		})
	}
}
