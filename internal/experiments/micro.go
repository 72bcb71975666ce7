package experiments

import (
	"fmt"

	"repro/internal/chksum"
	"repro/internal/cost"
	"repro/internal/measure"
	"repro/internal/sim"
)

// runChecksumMicro is Section 3.2's measurement: per-CPU checksum
// bandwidth over cache-busting data (32 MB/s per CPU, an implied bus
// capacity of ~38 checksumming processors). In the cost model that is a
// direct property; the experiment validates it by running concurrent
// checksum loops on the engine.
func runChecksumMicro(p Params) ([]measure.Table, error) {
	slots := workerSlots(p.workers())
	futs := make([]*future[float64], p.MaxProcs)
	for n := 1; n <= p.MaxProcs; n++ {
		futs[n-1] = submit(slots, func() (float64, error) {
			return checksumBandwidth(n, p)
		})
	}
	agg := measure.Series{Label: "Aggregate MB/s"}
	per := measure.Series{Label: "Per-CPU MB/s"}
	for i, f := range futs {
		n := i + 1
		mbps, err := f.wait()
		if err != nil {
			return nil, err
		}
		agg.X = append(agg.X, n)
		agg.Points = append(agg.Points, measure.Result{Mean: mbps})
		per.X = append(per.X, n)
		per.Points = append(per.Points, measure.Result{Mean: mbps / float64(n)})
	}
	return []measure.Table{{
		Title:  "Section 3.2: Checksumming micro-benchmark (cache-missing data)",
		XLabel: "procs", YLabel: "MB/s", Series: []measure.Series{agg, per},
	}}, nil
}

// checksumBandwidth runs n simulated processors checksumming
// cache-busting buffers for the measurement interval and returns the
// aggregate MB/s. The checksum arithmetic itself is real; each buffer's
// virtual cost comes from the model's cache-missing rate, reproducing
// the Section 3.2 measurement (32 MB/s per 100 MHz CPU).
func checksumBandwidth(n int, p Params) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("experiments: bad processor count %d", n)
	}
	eng := sim.New(cost.NewModel(cost.Challenge100), p.Seed)
	const block = 65536
	data := make([]byte, block)
	for i := range data {
		data[i] = byte(i * 31)
	}
	var bytes int64
	deadline := p.MeasureNs
	for i := 0; i < n; i++ {
		eng.Spawn(fmt.Sprintf("ck%d", i), i, func(t *sim.Thread) {
			for t.Now() < deadline {
				chksum.Sum(data)
				t.ChargeBytes(t.Engine().C.Stack.ChecksumByte, block)
				bytes += block
				t.Sync()
			}
		})
	}
	eng.Run()
	if eng.Now() == 0 {
		return 0, nil
	}
	return float64(bytes) / 1e6 / (float64(eng.Now()) / 1e9), nil
}
