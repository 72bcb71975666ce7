package experiments

import (
	"strings"
	"testing"
)

func tiny() Params {
	return Params{
		MaxProcs:  2,
		WarmupNs:  100_000_000,
		MeasureNs: 200_000_000,
		Runs:      1,
		Seed:      7,
		// The default ladder now tops out at a million connections,
		// whose setup alone dwarfs the tiny windows; the integration
		// sweep only needs the code path, not the scale.
		ScaleConns: []int{256, 2048},
	}
}

func TestCatalogIntegrity(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Catalog() {
		if s.ID == "" || s.Brief == "" || s.Figures == "" || len(s.Sweeps) == 0 && s.Extra == nil {
			t.Errorf("incomplete spec %+v", s)
		}
		if seen[s.ID] {
			t.Errorf("duplicate ID %s", s.ID)
		}
		seen[s.ID] = true
	}
	if len(seen) < 20 {
		t.Errorf("catalog has only %d specs", len(seen))
	}
}

func TestLookupAliases(t *testing.T) {
	for alias, want := range map[string]string{
		"fig2": "fig02-03", "fig3": "fig02-03",
		"fig8": "fig08-09", "fig9": "fig08-09",
		"fig17": "fig17-18", "fig18": "fig17-18",
		"table1": "table1", "fig10": "fig10",
	} {
		s, ok := Lookup(alias)
		if !ok || s.ID != want {
			t.Errorf("Lookup(%q) = %q, %v; want %q", alias, s.ID, ok, want)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("bogus ID resolved")
	}
}

func TestIDsSorted(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("IDs not sorted at %d: %v", i, ids)
		}
	}
}

func TestEveryPaperSpecRunsTiny(t *testing.T) {
	// Run each experiment at minimal size: this is the integration test
	// that every figure's code path works end to end.
	if testing.Short() {
		t.Skip("tiny sweep still simulates tens of virtual seconds")
	}
	p := tiny()
	for _, s := range Catalog() {
		t.Run(s.ID, func(t *testing.T) {
			tables, err := s.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if tb.Title == "" || len(tb.Series) == 0 {
					t.Errorf("malformed table %+v", tb.Title)
				}
				out := tb.String()
				if !strings.Contains(out, tb.XLabel) {
					t.Errorf("render missing x label:\n%s", out)
				}
			}
		})
	}
}

func TestChecksumBandwidthFlatPerCPU(t *testing.T) {
	p := tiny()
	one, err := checksumBandwidth(1, p)
	if err != nil {
		t.Fatal(err)
	}
	four, err := checksumBandwidth(4, p)
	if err != nil {
		t.Fatal(err)
	}
	// Section 3.2: each processor checksums at ~32 MB/s and the rate
	// holds as processors are added.
	if one < 28 || one > 36 {
		t.Errorf("1-cpu checksum bandwidth = %.1f MB/s, want ~32", one)
	}
	perCPU := four / 4
	if perCPU < 0.9*one || perCPU > 1.1*one {
		t.Errorf("per-CPU rate degraded: %.1f at 4 procs vs %.1f at 1", perCPU, one)
	}
	if _, err := checksumBandwidth(0, p); err == nil {
		t.Error("zero processors accepted")
	}
}

func TestDefaultAndQuickParams(t *testing.T) {
	d, q := DefaultParams(), QuickParams()
	if d.MaxProcs != 8 {
		t.Errorf("default MaxProcs = %d", d.MaxProcs)
	}
	if q.MeasureNs >= d.MeasureNs {
		t.Error("quick params not quicker")
	}
}

// TestExtScaleTCPCurveFlat: idle connections must cost a timer tick
// nothing — ext-scale's TCP curve is flat across its ladder, over a
// window that holds several heartbeats of both cadences (BSD's
// per-tick scan of every connection lost 4 % by 8 192).
func TestExtScaleTCPCurveFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up 8 192 handshakes")
	}
	p := tiny()
	p.WarmupNs, p.MeasureNs = 300_000_000, 1_200_000_000
	p.ScaleConns = []int{64, 8192}
	s, _ := Lookup("ext-scale")
	tables, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	curve := tables[0].Series[0]
	if len(tables[0].Series) != 1 || len(curve.Points) != 2 {
		t.Fatalf("TCP idle ladder: %d curves of %d rungs, want one of two", len(tables[0].Series), len(curve.Points))
	}
	first, last := curve.Points[0].Mean, curve.Points[1].Mean
	if first <= 0 || last < 0.99*first || last > 1.01*first {
		t.Errorf("%s: %.2f Mb/s at 64 connections, %.2f at 8192: not flat within 1 %%", curve.Label, first, last)
	}
}
