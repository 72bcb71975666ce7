package core

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/steer"
)

// shapeBranchCeiling is the most lines this package's sources may hold
// that test Proto or Side. Build chooses the workload once: newShape's
// arms and the validators are the only readers, and the ceiling follows
// them down so no new switch over the workload creeps in.
const shapeBranchCeiling = 7

func TestShapeBranchRatchet(t *testing.T) {
	paths, _ := filepath.Glob("*.go")
	branch := regexp.MustCompile(`\.(Proto|Side)\s*[!=]=|[!=]=\s*(Proto|Side)(UDP|TCP|Send|Recv)\b|\bcase\s+(Proto|Side)(UDP|TCP|Send|Recv)\b`)
	n := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			if branch.MatchString(line) {
				n++
			}
		}
	}
	switch {
	case n > shapeBranchCeiling:
		t.Errorf("%d lines in internal/core test Proto or Side, above the ceiling of %d: have the shape Build chose do it", n, shapeBranchCeiling)
	case n < shapeBranchCeiling:
		t.Logf("%d lines test Proto or Side, below the ceiling of %d: lower shapeBranchCeiling", n, shapeBranchCeiling)
	}
}

// TestEventLockNeverWaits: the event manager keeps its pending events
// under one lock because no run ever waits for it. Every shape at eight
// processors runs with a recorder, whose per-lock wait table must hold
// no entry for that lock ("evwheel"). A wait there is the condition
// under which the paper's per-chain locks could matter again.
func TestEventLockNeverWaits(t *testing.T) {
	tcp := DefaultConfig()
	tcp.Proto = ProtoTCP
	shapes := map[string]Config{
		"udp-send": DefaultConfig(),
		"udp-recv": DefaultConfig(),
		"steered":  steeredConfig(steer.PolicyFlowDirector),
		"tcp-send": tcp,
		"tcp-recv": tcp,
	}
	waited := 0
	for name, cfg := range shapes {
		if name == "udp-recv" || name == "tcp-recv" {
			cfg.Side = SideRecv
		}
		cfg.Procs, cfg.Connections = 8, 8
		cfg.SamplePeriodNs = 100_000_000
		st, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Run(testWarmup, testMeasure); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h := st.Rec.WaitHistogram("evwheel"); h != nil {
			t.Errorf("%s: the event manager's lock recorded %d waits, %d ns in all", name, h.Count(), h.Sum())
		}
		waited += len(st.Rec.WaitNames())
	}
	if waited == 0 {
		t.Error("no shape recorded a wait on any lock: the wait table is not being fed")
	}
}
