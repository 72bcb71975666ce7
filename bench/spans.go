package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one harness-side interval around a call into a layer: the
// benchmark records these from its own files, outside the stack. Spans
// are kept in memory and written out when the benchmark ends.
type span struct {
	Name   string
	Track  string // workload name: one track per workload
	Start  time.Duration
	End    time.Duration
	Parent int // index of the enclosing span, -1 at top level
}

// spanLog collects spans. The harness is single-threaded, so the open
// spans form a stack and the parent is whatever is open.
type spanLog struct {
	epoch time.Time
	track string
	spans []span
	open  []int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span under the currently open one and returns the
// function that closes it.
func (l *spanLog) begin(name string) func() {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Track: l.track, Start: time.Since(l.epoch), Parent: parent})
	l.open = append(l.open, id)
	return func() {
		l.spans[id].End = time.Since(l.epoch)
		l.open = l.open[:len(l.open)-1]
	}
}

// writeChrome exports the spans as Chrome trace-event JSON, loadable in
// Perfetto beside `xkprof -trace`: one track (tid) per workload,
// complete ("X") events, nesting by containment.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		TS   float64        `json:"ts"`            // microseconds
		Dur  float64        `json:"dur,omitempty"` // microseconds
		Args map[string]any `json:"args,omitempty"`
	}
	tids := map[string]int{}
	var events []event
	for _, s := range l.spans {
		tid, ok := tids[s.Track]
		if !ok {
			tid = len(tids) + 1
			tids[s.Track] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.Track}})
		}
		ev := event{Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3}
		if s.Parent >= 0 {
			ev.Args = map[string]any{"parent": l.spans[s.Parent].Name}
		}
		events = append(events, ev)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
