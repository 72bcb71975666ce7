package core

import (
	"flag"
	"io"
	"maps"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/steer"
	"repro/internal/tcp"
)

// notCLI lists the Config leaf fields no knob declares, each with the
// reason, so that a new field has to land either in knobs or here.
var notCLI = map[string]string{
	"Faults.Down.Drop":            "-drop binds the inbound rate; xkprof moves it outbound for -side send",
	"Faults.Down.Dup":             "as Faults.Down.Drop",
	"Faults.Down.Corrupt":         "as Faults.Down.Drop",
	"Faults.Down.Reorder":         "as Faults.Down.Drop",
	"Faults.Down.Delay":           "as Faults.Down.Drop",
	"Faults.Down.DelayNs":         "as Faults.Down.Drop",
	"NoHeaderPrediction":          "ablation-hdrpred only",
	"AckEvery":                    "ablation-ackrate only",
	"MapCache":                    "ablation-mapcache only",
	"WheelPerChain":               "ablation-wheel only",
	"HotConnPct":                  "ext-skew only (-hot is the steered workload's)",
	"Steer.Policy":                "-steer sets it together with Steer.Enabled",
	"Steer.Buckets":               "subsystem default; only steer's own tests vary it",
	"Steer.FlowTableSize":         "subsystem default; only steer's own tests vary it",
	"Steer.FlowBuckets":           "subsystem default; only steer's own tests vary it",
	"Steer.LockKind":              "derived: validateSteer copies LockKind",
	"Steer.RingCapacity":          "the steer-1m-skew-8p benchmark workload sizes it",
	"Steer.RebalancePeriodNs":     "ext-steer's quiescence ladder sets it",
	"Steer.ImbalanceThresholdPct": "ext-steer's quiescence ladder and core's rebalance tests set it",
	"Workload.Seed":               "derived from Seed; only the generator's own tests pin it",
	"SampleDepth":                 "subsystem default; the telemetry tests vary it",
}

// leaves walks v's exported fields and calls visit with each leaf's
// dotted path and address. A struct whose pointer is a flag.Value
// (cost.Machine) is one knob, hence a leaf.
func leaves(v reflect.Value, path string, visit func(path string, addr any)) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		if _, isValue := f.Addr().Interface().(flag.Value); f.Kind() == reflect.Struct && !isValue {
			leaves(f, name+".", visit)
		} else {
			visit(name, f.Addr().Interface())
		}
	}
}

// TestKnobTable checks the declarations themselves: unique flag names, a
// doc and a group on every entry, a bindable destination, a reason with
// every host predicate — and that each Config leaf field is declared by
// exactly one knob or listed in notCLI.
func TestKnobTable(t *testing.T) {
	var cfg Config
	declared := map[uintptr]string{}
	flags := map[string]bool{}
	stale := maps.Clone(notCLI)
	for _, k := range knobs {
		if k.doc == "" || k.group == "" {
			t.Errorf("knob %q: every knob needs a doc and a group", k.label())
		}
		if k.flag != "" && flags[k.flag] {
			t.Errorf("flag -%s is declared twice", k.flag)
		}
		flags[k.flag] = true
		if (k.hostBad == nil) != (k.hostWhy == "") {
			t.Errorf("knob %s: a host predicate and its reason come together", k.label())
		}
		addr := reflect.ValueOf(k.dest(&cfg)).Pointer()
		if prev, dup := declared[addr]; dup {
			t.Errorf("knobs %s and %s share a destination", prev, k.label())
		}
		declared[addr] = k.label()
	}
	leaves(reflect.ValueOf(&cfg).Elem(), "", func(path string, addr any) {
		_, isKnob := declared[reflect.ValueOf(addr).Pointer()]
		_, listed := notCLI[path]
		switch {
		case isKnob && listed:
			t.Errorf("Config.%s is declared in knobs and listed in notCLI", path)
		case !isKnob && !listed:
			t.Errorf("Config.%s has no knob declaration; declare it or list it in notCLI with the reason", path)
		}
		delete(stale, path)
	})
	for path := range stale {
		t.Errorf("notCLI lists %s, which is not a Config leaf field", path)
	}
}

// TestBindFlagsDefaultsAndParse: the flag set's defaults are the values
// the Config held, and a parsed command line lands in the Config.
func TestBindFlagsDefaultsAndParse(t *testing.T) {
	cfg := DefaultConfig()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	BindFlags(fs, &cfg)
	if err := fs.Parse(nil); err != nil || !reflect.DeepEqual(cfg, DefaultConfig()) {
		t.Fatalf("parsing no flags changed the config (err %v):\n%+v", err, cfg)
	}
	args := strings.Fields("-proto tcp -side recv -procs 4 -lock mcs -layout 6 -refs locked -msgcache=false" +
		" -machine power33 -steer fdir -drop 0.01 -seed 7 -batchflush 1000 -strategy connection")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.Proto, want.Side, want.Procs, want.Seed = ProtoTCP, SideRecv, 4, 7
	want.LockKind, want.Layout, want.RefMode, want.MsgCache = sim.KindMCS, tcp.Layout6, sim.RefLocked, false
	want.Machine, want.Strategy = cost.PowerSeries33, StrategyConnection
	want.Steer.Enabled, want.Steer.Policy = true, steer.PolicyFlowDirector
	want.Faults.Up.Drop, want.Batch.FlushTimeoutNs = 0.01, 1000
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("parsed config:\n got %+v\nwant %+v", cfg, want)
	}
	if err := fs.Parse([]string{"-steer", "off"}); err != nil || cfg.Steer.Enabled {
		t.Errorf("-steer off left steering on (err %v)", err)
	}
	for _, bad := range []string{"-lock=spin", "-layout=3", "-steer=toeplitz", "-procs=many"} {
		if err := fs.Parse([]string{bad}); err == nil {
			t.Errorf("%s parsed", bad)
		}
	}
	if g := FlagGroups(); !strings.Contains(g, "  workload       -proto -side") || strings.Contains(g, " \n") {
		t.Errorf("usage groups are malformed:\n%s", g)
	}
}

// roundTrip checks that each of an enum's n values survives
// Set(String()) and that a junk name is refused.
func roundTrip[E ~int, P interface {
	*E
	flag.Value
}](t *testing.T, name string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		v, got := E(i), new(E)
		if err := P(got).Set(P(&v).String()); err != nil || *got != v {
			t.Errorf("%s: Set(%q) gave %q, err %v", name, P(&v), P(got), err)
		}
	}
	if err := P(new(E)).Set("no-such-" + name); err == nil {
		t.Errorf("%s: junk accepted", name)
	}
	if past := E(n); P(&past).String() != "invalid" {
		t.Errorf("%s: has more than the %d values checked", name, n)
	}
}

// TestEnumsRoundTrip: every value of every enum survives
// Set(String()), a junk name is refused, and Build refuses a value
// outside the enum whatever path it arrived by.
func TestEnumsRoundTrip(t *testing.T) {
	roundTrip[Proto](t, "proto", len(protoNames))
	roundTrip[Side](t, "side", len(sideNames))
	roundTrip[Strategy](t, "strategy", len(strategyNames))
	roundTrip[sim.LockKind](t, "lock", 3)
	roundTrip[sim.RefMode](t, "refs", 2)
	roundTrip[sim.Backend](t, "backend", 2)
	roundTrip[tcp.Layout](t, "layout", 3)
	roundTrip[steer.Policy](t, "policy", 4)
	for _, m := range cost.Machines {
		var got cost.Machine
		if err := got.Set(m.String()); err != nil || got != m {
			t.Errorf("machine: Set(%q) gave %q, err %v", m, got, err)
		}
	}
	if err := new(cost.Machine).Set("no-such-machine"); err == nil {
		t.Error("machine: junk accepted")
	}

	for name, bad := range map[string]func(*Config){
		"proto":    func(c *Config) { c.Proto = 9 },
		"side":     func(c *Config) { c.Side = 9 },
		"strategy": func(c *Config) { c.Strategy = 9 },
		"lock":     func(c *Config) { c.LockKind = 9 },
		"refs":     func(c *Config) { c.RefMode = 9 },
		"backend":  func(c *Config) { c.Backend = 9 },
		"layout":   func(c *Config) { c.Layout = 9 },
		"policy":   func(c *Config) { c.Side, c.Steer.Enabled, c.Steer.Policy = SideRecv, true, 9 },
		"machine":  func(c *Config) { c.Machine = cost.Machine{} },
	} {
		cfg := DefaultConfig()
		bad(&cfg)
		if _, err := Build(cfg); err == nil {
			t.Errorf("%s: Build accepted a value outside the enum", name)
		}
	}
}
