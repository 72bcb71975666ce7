package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/steer"
	"repro/internal/tcp"
)

func TestProfileReportTCPRecv(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Proto = ProtoTCP
	cfg.Side = SideRecv
	cfg.Procs = 4
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(testWarmup, testMeasure); err != nil {
		t.Fatal(err)
	}
	rep := st.ProfileReport()
	for _, want := range []string{
		"tcp-state[conn 0]", "map:fddi-demux", "map:ip-demux",
		"map:tcp-demux", "malloc", "Message tool",
		"header prediction hit rate", "IP: sent",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("profile missing %q:\n%s", want, rep)
		}
	}
}

func TestProfileReportUDPSend(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 2
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(testWarmup, testMeasure); err != nil {
		t.Fatal(err)
	}
	rep := st.ProfileReport()
	if !strings.Contains(rep, "map:udp-demux") && !strings.Contains(rep, "Message tool") {
		t.Errorf("UDP profile incomplete:\n%s", rep)
	}
	if strings.Contains(rep, "tcp-state") {
		t.Error("UDP profile mentions TCP state")
	}
}

// TestReportRendersProfile: ProfileReport prints the value Profile
// returns. Each of the stack's lock rows appears under its name with its
// numbers; each lock only the recorder saw appears as its wait row, and
// its numbers are that row's histogram. The rows count every recorded
// wait once, whatever the TCP lock layout. Steered, the profile carries
// the flow table's lock row and its hit and miss counts, and the report
// the flow-table line the benchmark parses.
func TestReportRendersProfile(t *testing.T) {
	steered := steeredConfig(steer.PolicyFlowDirector)
	steered.Trace = true
	tcp2 := tracedTCPRecv(true)
	tcp2.Layout = tcp.Layout2
	for name, cfg := range map[string]Config{"tcp-recv": tracedTCPRecv(true), "tcp-2": tcp2, "steered": steered} {
		st, res := runProfile(t, cfg)
		p := st.Profile(name, res)
		rep := st.ProfileReport()
		var rowWait, recWait int64
		for _, l := range p.Locks {
			rowWait += l.WaitNs
		}
		for _, w := range p.Waits {
			recWait += w.Wait.Sum
		}
		if rowWait != recWait {
			t.Errorf("%s: lock rows hold %d ns of wait, the recorder saw %d", name, rowWait, recWait)
		}
		lines := strings.Split(rep, "\n")
		// find reports whether a report line starts with the name's words
		// and then the fields.
		find := func(name string, fields ...string) bool {
			fields = append(strings.Fields(name), fields...)
			for _, line := range lines {
				if f := strings.Fields(line); len(f) >= len(fields) && slices.Equal(f[:len(fields)], fields) {
					return true
				}
			}
			return false
		}
		waits := map[string]HistogramJSON{}
		for _, w := range p.Waits {
			waits[w.Name] = w.Wait
			if !find("wait "+w.Name, fmt.Sprintf("n=%d", w.Wait.Count), fmt.Sprintf("p50=%d", w.Wait.P50)) {
				t.Errorf("%s: report lacks the wait row of %s", name, w.Name)
			}
		}
		for _, l := range p.Locks {
			if l.Acquires == 0 {
				if h, ok := waits[l.Name]; !ok || h.Count != l.Contended || h.Sum != l.WaitNs {
					t.Errorf("%s: recorder-only row %+v is not its wait histogram %+v", name, l, h)
				}
				continue
			}
			if !find(l.Name, fmt.Sprint(l.Acquires), fmt.Sprint(l.Contended),
				fmt.Sprintf("%.1f%%", 100*float64(l.Contended)/float64(l.Acquires)),
				fmt.Sprintf("%.2f", float64(l.WaitNs)/1e6), "ms",
				fmt.Sprintf("%.2f", float64(l.HoldNs)/1e6), "ms", fmt.Sprint(l.MaxWaiters)) {
				t.Errorf("%s: report lacks lock row %+v:\n%s", name, l, rep)
			}
		}
		if name != "steered" {
			continue
		}
		i := slices.IndexFunc(p.Locks, func(l LockJSON) bool { return l.Name == "fdir flow table" })
		if i < 0 || p.Locks[i].Acquires == 0 {
			t.Fatalf("steered profile has no fdir flow table row: %+v", p.Locks)
		}
		if p.Steer == nil || p.Steer.FlowHits == 0 || p.Steer.FlowMiss == 0 {
			t.Fatalf("steered profile lacks the flow table counts: %+v", p.Steer)
		}
		if line := fmt.Sprintf("flow table %d hits / %d misses", p.Steer.FlowHits, p.Steer.FlowMiss); !strings.Contains(rep, line) {
			t.Errorf("report lacks %q", line)
		}
	}
}

// TestReportRendersFaultWire: a faulted TCP run's report carries the
// fault wire's section, with every counter the profile's Fault value
// holds: each direction's frames and what happened to them, and what
// the driver peer did about it — the sending peer's retransmissions
// (TCP receive) or the receiving peer's refused frames (TCP send).
func TestReportRendersFaultWire(t *testing.T) {
	recv := DefaultConfig()
	recv.Proto, recv.Side, recv.Procs = ProtoTCP, SideRecv, 2
	recv.Faults.Up = driver.FaultRates{Drop: 0.02, Dup: 0.02, Corrupt: 0.02, Reorder: 0.02}
	send := recv
	send.Side = SideSend
	send.Faults.Up, send.Faults.Down = driver.FaultRates{}, driver.FaultRates{Drop: 0.02, Corrupt: 0.02}
	for name, cfg := range map[string]Config{"tcp-recv": recv, "tcp-send": send} {
		st, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Run(1_000_000_000, 2_000_000_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f := st.Profile(name, res).Fault
		if f == nil {
			t.Fatalf("%s: the profile has no fault counters", name)
		}
		rep := st.ProfileReport()
		lines := strings.Split(rep, "\n")
		has := func(words ...string) bool {
			return slices.ContainsFunc(lines, func(line string) bool { return slices.Equal(strings.Fields(line), words) })
		}
		if !has("Fault", "wire:") {
			t.Errorf("%s: report lacks the fault wire's heading:\n%s", name, rep)
		}
		faulted := f.Up
		if cfg.Side == SideSend {
			faulted = f.Down
		}
		if faulted.Dropped == 0 || faulted.Corrupted == 0 {
			t.Errorf("%s: the faulted direction dropped %d and corrupted %d frames, want some of each", name, faulted.Dropped, faulted.Corrupted)
		}
		for _, d := range []struct {
			words []string
			s     driver.FaultDirStats
		}{{[]string{"up", "(wire->stack)"}, f.Up}, {[]string{"down", "(stack->wire)"}, f.Down}} {
			line := append(d.words, fmt.Sprint(d.s.Frames), "frames:", fmt.Sprint(d.s.Dropped), "dropped,",
				fmt.Sprint(d.s.Duplicated), "duplicated,", fmt.Sprint(d.s.Corrupted), "corrupted,",
				fmt.Sprint(d.s.Reordered), "reordered")
			if d.s.Frames > 0 && !has(line...) {
				t.Errorf("%s: report lacks %q:\n%s", name, strings.Join(line, " "), rep)
			}
		}
		switch cfg.Side {
		case SideRecv:
			if f.Up.Duplicated == 0 || f.Up.Reordered == 0 {
				t.Errorf("%s: the wire duplicated %d and reordered %d frames, want some of each", name, f.Up.Duplicated, f.Up.Reordered)
			}
			if r := f.PeerRexmt; r == nil || r[0]+r[1] == 0 {
				t.Errorf("%s: the sending peer's retransmissions are %v, want some", name, r)
			} else if !has("peer", "retransmissions:", fmt.Sprint(r[0]), "on", "dup-acks,", fmt.Sprint(r[1]), "on", "timeout") {
				t.Errorf("%s: report lacks the peer's retransmissions %v:\n%s", name, *r, rep)
			}
		case SideSend:
			if bad := f.PeerBadChecksums; bad == nil || *bad == 0 {
				t.Errorf("%s: the receiving peer refused %v frames, want some", name, bad)
			} else if !has("peer", "rejected", fmt.Sprint(*bad), "bad-checksum", "frames") {
				t.Errorf("%s: report lacks the peer's %d refused frames:\n%s", name, *bad, rep)
			}
		}
	}
}
