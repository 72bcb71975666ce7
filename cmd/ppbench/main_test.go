package main

import (
	"flag"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// invocations returns the ppbench command lines shown in the file at
// path between the first start and the next end: each line's text from
// "ppbench -" on, up to a trailing comment or closing backquote.
func invocations(t *testing.T, path, start, end string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	i := strings.Index(text, start)
	if i < 0 {
		t.Fatalf("%s: no %q", path, start)
	}
	text = text[i:]
	if j := strings.Index(text[len(start):], end); j >= 0 {
		text = text[:len(start)+j]
	}
	var out []string
	for _, line := range strings.Split(text, "\n") {
		k := strings.Index(line, "ppbench -")
		if k < 0 {
			continue
		}
		line = line[k:]
		if c := strings.IndexAny(line, "#`"); c >= 0 {
			line = line[:c]
		}
		out = append(out, strings.TrimSpace(line))
	}
	if len(out) == 0 {
		t.Fatalf("%s: no ppbench invocations after %q", path, start)
	}
	return out
}

// TestUsageExamplesParse: every invocation in the command's doc comment
// and README's "Reproducing the paper" section parses, and names only
// catalogued experiments.
func TestUsageExamplesParse(t *testing.T) {
	lines := append(invocations(t, "main.go", "// Usage:", "package main"),
		invocations(t, "../../README.md", "## Reproducing the paper", "\n## ")...)
	for _, line := range lines {
		_, o, err := parse(strings.Fields(line)[1:], flag.ContinueOnError)
		if err != nil {
			t.Errorf("%s: %v", line, err)
			continue
		}
		if o.experiment == "" || o.experiment == "all" {
			continue
		}
		for _, id := range strings.Split(o.experiment, ",") {
			if _, ok := experiments.Lookup(id); !ok {
				t.Errorf("%s: unknown experiment %q", line, id)
			}
		}
	}
}

// TestQuickKeepsExplicitFlags: -quick swaps the defaults the flags start
// from; a flag given on the line still wins, on either side of -quick.
func TestQuickKeepsExplicitFlags(t *testing.T) {
	for _, line := range []string{"-quick -conns 64,128", "-conns 64,128 -quick"} {
		p, _, err := parse(strings.Fields(line), flag.ContinueOnError)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		want := experiments.QuickParams()
		want.ScaleConns = []int{64, 128}
		if !reflect.DeepEqual(p, want) {
			t.Errorf("%s: params %+v, want %+v", line, p, want)
		}
	}
	p, _, err := parse([]string{"-quick"}, flag.ContinueOnError)
	if err != nil || !reflect.DeepEqual(p, experiments.QuickParams()) {
		t.Errorf("-quick: params %+v (%v), want QuickParams", p, err)
	}
	p, _, err = parse([]string{"-warmup", "5", "-measure", "7", "-backend", "sim", "-loss", "0, 0.5"}, flag.ContinueOnError)
	want := experiments.DefaultParams()
	want.WarmupNs, want.MeasureNs, want.Backend, want.LossRates = 5_000_000, 7_000_000, "sim", []float64{0, 0.5}
	if err != nil || !reflect.DeepEqual(p, want) {
		t.Errorf("params %+v (%v), want %+v", p, err, want)
	}
}

// TestBadLadderExits: a ladder value out of range is a usage error, exit
// status 2, with the message naming the flag and the range.
func TestBadLadderExits(t *testing.T) {
	if os.Getenv("PPBENCH_MAIN") == "1" {
		os.Args = append([]string{"ppbench"}, strings.Fields(os.Getenv("PPBENCH_ARGS"))...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, want string }{
		{"-loss 2", `bad -loss rate "2" (want values in [0,1])`},
		{"-batch 0", `bad -batch size "0" (want integers >= 1)`},
		{"-conns x", `bad -conns count "x" (want integers >= 1)`},
		{"-backend gpu", `invalid value "gpu" for flag -backend`},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadLadderExits$")
		cmd.Env = append(os.Environ(), "PPBENCH_MAIN=1", "PPBENCH_ARGS="+tc.args+" -experiment table1")
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2", tc.args, err)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}
