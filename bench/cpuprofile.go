package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// Host CPU attribution for the traced pass: the pass runs under a
// runtime/pprof CPU profile, and the samples are bucketed by the Go
// package of the function that was running. The profile is the gzipped
// profile.proto encoding; only the four message types the bucketing
// needs are decoded here, with the standard library alone.

// cpuProfile accumulates samples over the traced passes of one run.
type cpuProfile struct {
	buf     bytes.Buffer
	buckets map[string]int64 // bucket -> samples
	total   int64
}

func newCPUProfile() *cpuProfile { return &cpuProfile{buckets: map[string]int64{}} }

// around profiles fn and folds its samples into the buckets.
func (c *cpuProfile) around(fn func()) error {
	c.buf.Reset()
	if err := pprof.StartCPUProfile(&c.buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(c.buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range stacks {
		c.total += s.count
		if b := cpuBucket(s.funcs); b != "" {
			c.buckets[b] += s.count
		}
	}
	return nil
}

// share returns the bucket's share of all samples taken.
func (c *cpuProfile) share(bucket string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.buckets[bucket]) / float64(c.total)
}

// Buckets beside the repo's own packages.
const (
	bucketSched = "goruntime.sched"
	bucketGC    = "goruntime.gc"
)

// gcFrames and schedFrames mark a runtime sample as collector or
// scheduler work when any frame of its stack carries one of them: the
// leaf is usually something generic (memmove, futex, a lock).
var (
	gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.sweepone", "runtime.scanobject", "runtime.markroot"}
	schedFrames = []string{"runtime.schedule", "runtime.park_m", "runtime.gopark", "runtime.goready",
		"runtime.ready", "runtime.findRunnable", "runtime.mcall", "runtime.goschedImpl", "runtime.gosched_m",
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.futex", "runtime.futexsleep",
		"runtime.futexwakeup", "runtime.notesleep", "runtime.notewakeup", "runtime.wakep", "runtime.startm",
		"runtime.stopm", "runtime.mstart", "runtime.runqgrab", "runtime.lock2", "runtime.unlock2",
		"runtime.usleep", "runtime.osyield", "runtime.semacquire1", "runtime.semrelease1"}
)

// cpuBucket names the bucket of one sampled stack (leaf first). A leaf
// in one of the repo's packages goes to that package's module; a leaf
// in the Go runtime goes to the collector or the scheduler when the
// stack shows it was doing their work.
func cpuBucket(funcs []string) string {
	if len(funcs) == 0 {
		return ""
	}
	leaf := funcs[0]
	if rest, ok := strings.CutPrefix(leaf, "repro/internal/"); ok {
		mod, _, _ := strings.Cut(rest, ".")
		mod, _, _ = strings.Cut(mod, "/")
		return mod
	}
	if !strings.HasPrefix(leaf, "runtime.") && !strings.HasPrefix(leaf, "internal/runtime/") &&
		!strings.HasPrefix(leaf, "sync.") && !strings.HasPrefix(leaf, "sync/atomic.") {
		return ""
	}
	has := func(marks []string) bool {
		for _, f := range funcs {
			for _, m := range marks {
				if f == m || strings.HasPrefix(f, m+".") {
					return true
				}
			}
		}
		return false
	}
	switch {
	case has(gcFrames):
		return bucketGC
	case has(schedFrames):
		return bucketSched
	}
	return ""
}

// sampledStack is one profile sample: function names leaf first, and
// how many times the stack was seen.
type sampledStack struct {
	funcs []string
	count int64
}

// decodeProfile decodes a gzipped profile.proto into sampled stacks.
// Field numbers are those of the pprof profile.proto: Profile{sample=2,
// location=4, function=5, string_table=6}, Sample{location_id=1,
// value=2}, Location{id=1, line=4}, Line{function_id=1},
// Function{id=1, name=2}.
func decodeProfile(gz []byte) ([]sampledStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost inlined frame first
		funcName = map[uint64]uint64{}   // function id -> string table index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0]) // value[0] is the sample count
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sampledStack, 0, len(samples))
	for _, s := range samples {
		st := sampledStack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf message")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: packed
// (bytes present) or a single unpacked value.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
