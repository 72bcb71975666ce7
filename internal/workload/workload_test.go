package workload

import (
	"testing"
)

// TestGeneratorDeterministic: the arrival stream is a pure function of
// config and seed.
func TestGeneratorDeterministic(t *testing.T) {
	cfg := Config{HotConnPct: 30, HotConns: 4, MeanFlowPkts: 16, Seed: 5}
	g1 := NewGenerator(cfg, 64)
	g2 := NewGenerator(cfg, 64)
	for i := 0; i < 10_000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("arrival %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

// TestGeneratorShape checks the structural properties the steering
// experiments rely on: monotone open-loop arrival times, per-connection
// monotone sequence numbers, generation bumps on churn, and skew
// concentrating traffic on the hot subset.
func TestGeneratorShape(t *testing.T) {
	cfg := Config{HotConnPct: 60, HotConns: 2, MeanFlowPkts: 8, Seed: 11}
	const conns = 32
	g := NewGenerator(cfg, conns)
	lastAt := int64(0)
	lastSeq := make(map[int]int64)
	maxGen := uint32(0)
	hot := int64(0)
	const n = 50_000
	for i := 0; i < n; i++ {
		a := g.Next()
		if a.At <= lastAt {
			t.Fatalf("arrival %d time %d not after %d", i, a.At, lastAt)
		}
		lastAt = a.At
		if a.Conn < 0 || a.Conn >= conns {
			t.Fatalf("arrival %d names connection %d", i, a.Conn)
		}
		if s, ok := lastSeq[a.Conn]; ok && a.Seq != s+1 {
			t.Fatalf("conn %d sequence jumped %d -> %d", a.Conn, s, a.Seq)
		}
		lastSeq[a.Conn] = a.Seq
		if a.Gen > maxGen {
			maxGen = a.Gen
		}
		if a.Conn < 2 {
			hot++
		}
	}
	if maxGen == 0 {
		t.Error("no connection ever churned")
	}
	// 60% targeted plus the uniform share landing on conns 0-1.
	frac := float64(hot) / n
	if frac < 0.55 || frac > 0.75 {
		t.Errorf("hot-subset share %.2f outside [0.55, 0.75]", frac)
	}
}

// TestFlowSizesHeavyTailed: mean near the configured value with a tail
// well beyond it.
func TestFlowSizesHeavyTailed(t *testing.T) {
	g := NewGenerator(Config{MeanFlowPkts: 64, Seed: 3}, 1)
	var sum, max int64
	const n = 20_000
	for i := 0; i < n; i++ {
		s := int64(g.flowSize())
		sum += s
		if s > max {
			max = s
		}
	}
	mean := float64(sum) / n
	if mean < 32 || mean > 128 {
		t.Errorf("mean flow size %.1f far from 64", mean)
	}
	if max < 10*64 {
		t.Errorf("max flow size %d shows no heavy tail", max)
	}
}

// TestStampRoundTrip pins the payload stamp codec.
func TestStampRoundTrip(t *testing.T) {
	var b [StampLen]byte
	EncodeStamp(b[:], 4095, 123456, 7)
	conn, seq, gen := DecodeStamp(b[:])
	if conn != 4095 || seq != 123456 || gen != 7 {
		t.Fatalf("round trip gave conn=%d seq=%d gen=%d", conn, seq, gen)
	}
}
