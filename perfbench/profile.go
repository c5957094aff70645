package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileGroups are the buckets CPU samples and allocation sites are
// attributed to: the simulator's layers by package, the Go runtime's
// allocator and collector, and everything else.
var profileGroups = []string{
	"sim", "cpu", "nic", "netstack", "queue", "core", "kernel", "workload",
	"runtime.malloc", "runtime.gc", "other",
}

// allocGroups are the packages allocation sites are attributed to.
var allocGroups = []string{
	"sim", "cpu", "nic", "netstack", "queue", "core", "kernel", "workload", "other",
}

const internalPrefix = "livelock/internal/"

// layerOf maps a function name to its livelock/internal package, or ""
// for a function outside the module's internal tree.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func knownGroup(g string, groups []string) string {
	for _, k := range groups {
		if k == g {
			return g
		}
	}
	return "other"
}

// runtime frames that mark collector work anywhere on the stack (mark
// workers, assists, write barriers, sweeping) and allocator work.
var (
	gcMarkers = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.markroot", "runtime.scanobject", "runtime.greyobject",
		"runtime.findObject", "runtime.wbBufFlush", "runtime.gcWriteBarrier",
		"runtime.bulkBarrierPreWrite", "runtime.bgsweep", "runtime.sweepone",
		"runtime.deductSweepCredit", "runtime.bgscavenge", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.GC",
	}
	mallocMarkers = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.newarray", "runtime.memclrNoHeapPointers",
		"runtime.makemap",
	}
)

func hasMarker(stack []string, markers []string) bool {
	for _, fn := range stack {
		for _, m := range markers {
			if strings.HasPrefix(fn, m) {
				return true
			}
		}
	}
	return false
}

// groupOf attributes one CPU sample, stack[0] being the leaf: a leaf in
// the simulator goes to its package; a leaf in the runtime goes to the
// collector if any frame is collector work, else to the allocator if any
// frame is allocation.
func groupOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if l := layerOf(stack[0]); l != "" {
		return knownGroup(l, profileGroups)
	}
	if strings.HasPrefix(stack[0], "runtime.") || strings.HasPrefix(stack[0], "internal/runtime") {
		switch {
		case hasMarker(stack, gcMarkers):
			return "runtime.gc"
		case hasMarker(stack, mallocMarkers):
			return "runtime.malloc"
		}
	}
	return "other"
}

// spanLabel marks the goroutines whose samples count: the simulation
// goroutine during an episode's steady span, or every sweep worker (they
// inherit it from the goroutine that starts the sweep).
const spanLabel = "perfbench"

var steadyLabels = pprof.Labels(spanLabel, "steady")

// cpuProfile captures a CPU profile into memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each group's share of the labelled
// samples, and the labelled sample count.
func (p *cpuProfile) stop() (map[string]float64, int, error) {
	pprof.StopCPUProfile()
	samples, err := parseProfile(&p.buf)
	if err != nil {
		return nil, 0, err
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range samples {
		// The run-hook clock is the tracer's own cost, not the
		// simulator's.
		if !s.labelled || hasMarker(s.stack, []string{"main.(*classClock)"}) {
			continue
		}
		counts[groupOf(s.stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(profileGroups))
	for _, g := range profileGroups {
		if total > 0 {
			shares[g] = float64(counts[g]) / float64(total)
		}
	}
	return shares, int(total), nil
}

// allocSites snapshots the heap profile's per-stack allocation counts.
// With runtime.MemProfileRate = 1 every allocation is recorded, so the
// difference of two snapshots counts the allocations between them. The
// profile is published at garbage collections, hence the two GCs.
func allocSites() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// attributeAllocs groups the allocations made between two snapshots by
// the first livelock/internal frame of each allocating stack.
func attributeAllocs(before, after map[[32]uintptr]int64) map[string]int64 {
	out := make(map[string]int64)
	for stk, n := range after {
		d := n - before[stk]
		if d <= 0 {
			continue
		}
		group := "other"
		frames := runtime.CallersFrames(trimStack(stk[:]))
		for {
			f, more := frames.Next()
			if l := layerOf(f.Function); l != "" {
				group = knownGroup(l, allocGroups)
				break
			}
			if !more {
				break
			}
		}
		out[group] += d
	}
	return out
}

func trimStack(s []uintptr) []uintptr {
	for i, pc := range s {
		if pc == 0 {
			return s[:i]
		}
	}
	return s
}

// --- a minimal reader for the gzipped protobuf pprof format ---

type profSample struct {
	stack    []string // function names, leaf first
	count    int64
	labelled bool
}

// parseProfile decodes the fields of perftools.profiles.Profile this
// benchmark needs: samples (location IDs, values, string labels),
// locations (their inlined lines' function IDs), functions (name string
// index) and the string table.
func parseProfile(r io.Reader) ([]profSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	type rawSample struct {
		locs     []uint64
		value    int64
		labelKey int64
	}
	var (
		samples []rawSample
		locFns  = make(map[uint64][]uint64) // location -> function IDs, innermost first
		fnName  = make(map[uint64]int64)    // function -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					if vals := appendVarints(nil, wire, v, b); len(vals) > 0 && s.value == 0 {
						s.value = int64(vals[0])
					}
				case 3: // label {key, str}
					var key, str int64
					err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
						switch num {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					if str != 0 {
						s.labelKey = key
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line {function_id, line}
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	var out []profSample
	for _, s := range samples {
		ps := profSample{count: s.value, labelled: str(s.labelKey) == spanLabel}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				ps.stack = append(ps.stack, str(fnName[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the protobuf fields of b, calling fn with the field
// number, wire type, and the varint value or the length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
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
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
