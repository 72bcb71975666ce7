package core

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
