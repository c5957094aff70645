// Command perfbench is the repository's host-cost benchmark: how much
// host time, memory and allocation the simulator spends to produce its
// simulated results, end to end and layer by layer.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: fwd-polled, livelock-unmodified, smp4-polled (single-router
// floods, see workloads.go) and figure-sweep (experiment.AllFigures at
// the golden-test settings, see sweep.go). With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it makes the separate traced run
// that reports the per-layer metrics. Every run checks the simulated
// outputs (audits, traffic shape, pinned digests) and counts failures.
//
// The report is human-readable lines followed by one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// Run it from the repository root (it reads testdata/golden-figures.json)
// through perfbench/run.sh, which builds it first. README.md in this
// directory maps each layer metric to the end-to-end metric it should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: fwd-polled, livelock-unmodified, smp4-polled or figure-sweep")
	seed := flag.Uint64("seed", defaultSeed, "workload seed (kernel.Config.Seed / experiment.Options.Seed)")
	seconds := flag.Int("seconds", 20, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, ".", goldenSweep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload for budget and returns its report; sweep
// fixes the figure sweep's trial windows (the golden-test setting,
// except in the benchmark's own short tests), and root is the
// repository root, which holds the golden figure digests.
func run(name string, seed uint64, budget time.Duration, trace bool, root string, sweep sweepSpec) (*report, error) {
	rep := newReport()
	if name == figureSweep {
		golden, err := loadGolden(root)
		if err != nil {
			return nil, err
		}
		if trace {
			traceSweep(rep, sweep, seed, golden)
		} else {
			measureSweep(rep, sweep, seed, budget, golden)
		}
		return rep, nil
	}
	w := findSimWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	// The simulation is single-threaded. On one P the collector's
	// background work runs on the simulation's processor between its
	// events instead of beside it, so a window's process CPU time holds
	// exactly the collection work done in it: Linux credits a thread
	// running on another processor only at a scheduler tick or when it
	// sleeps, which lands that work in whichever window is open then.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if trace {
		traceSim(rep, w, seed, budget)
	} else {
		measureSim(rep, w, seed, budget)
	}
	return rep, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, failure counts and notes.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	notes     []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records n failed operations and why.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// write prints the notes, every metric by name with its unit, any
// problems, and finally the JSON result line.
func (r *report) write(f io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(f, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintln(f, "FAILED:", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && len(r.problems) == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(out))
	return err
}
