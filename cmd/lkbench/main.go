// Command lkbench is the benchmark-regression gate: it runs the
// substrate microbenchmarks several times, keeps the best (minimum)
// ns/op per benchmark to suppress scheduler noise, and compares the
// result against a committed baseline.
//
// The gate fails when a benchmark's event throughput (1e9 / ns-per-op,
// i.e. ops/sec) drops more than -threshold below the baseline, or when
// its allocations per operation exceed the baseline at all — the alloc
// count is deterministic, so any increase is a real regression, while
// timing gets a tolerance band.
//
// Usage:
//
//	lkbench -baseline BENCH_baseline.json            # gate (CI)
//	lkbench -baseline BENCH_baseline.json -update    # regenerate baseline
//	lkbench -count 5 -threshold 0.15                 # noisier machines
//
// The tool shells out to `go test -bench` rather than linking the
// benchmarks, so the numbers come from exactly the same command a
// developer runs by hand.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// defaultBenchRegexp selects the substrate microbenchmarks: fast enough
// to run -count times in CI, and together covering the event engine,
// the scheduling path, the packet FIFOs, the buffer pool, the sampler,
// and one full simulated second of router operation, both with its
// construction and (SimulatedSecondSteady) as steady state alone.
const defaultBenchRegexp = "^(BenchmarkEngineEvents|BenchmarkEngineEventsCall|" +
	"BenchmarkCPUDispatch|BenchmarkQueueOps|BenchmarkPoolGetPut|" +
	"BenchmarkSamplerTick|BenchmarkSimulatedSecond|BenchmarkSimulatedSecondSteady|BenchmarkSimulatedSecondProfiled|" +
	"BenchmarkSimulatedSecondSMP4|BenchmarkSimulatedSecondCoalesceSACK)$"

// defaultTight is the default per-benchmark threshold override: the
// full-router benchmark runs with the cycle-attribution profiler
// disabled, and the observability layer's contract is that disabled
// means free — so it gets a 2% band where the (noisier, much shorter)
// microbenchmarks get the global tolerance.
const defaultTight = "SimulatedSecond=0.02"

// Result is one benchmark's summarized measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// OpsPerSec converts to event throughput, the quantity the gate is
// phrased in.
func (r Result) OpsPerSec() float64 { return 1e9 / r.NsPerOp }

// Baseline is the committed reference file.
type Baseline struct {
	// Note documents how the file was produced.
	Note string `json:"note"`
	// GoTestArgs records the exact measurement command for reproducing.
	GoTestArgs string `json:"go_test_args"`
	// Benchmarks maps bare benchmark names (no "Benchmark" prefix, no
	// -GOMAXPROCS suffix) to their best-of-N results.
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lkbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lkbench", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "baseline file to compare against (or write with -update)")
	update := fs.Bool("update", false, "write the measured results as the new baseline instead of comparing")
	count := fs.Int("count", 3, "benchmark repetitions; the minimum ns/op of the runs is used")
	threshold := fs.Float64("threshold", 0.10, "maximum tolerated fractional drop in ops/sec before failing")
	tight := fs.String("tight", defaultTight, "comma-separated name=frac per-benchmark threshold overrides (empty = none)")
	benchRe := fs.String("bench", defaultBenchRegexp, "go test -bench regexp selecting the gated benchmarks")
	pkg := fs.String("pkg", ".", "package directory containing the benchmarks")
	benchtime := fs.String("benchtime", "0.5s", "go test -benchtime per repetition")
	if err := fs.Parse(args); err != nil {
		return err
	}

	testArgs := []string{
		"test", "-run", "^$",
		"-bench", *benchRe,
		"-benchmem",
		"-benchtime", *benchtime,
		"-count", strconv.Itoa(*count),
		*pkg,
	}
	fmt.Fprintf(os.Stderr, "lkbench: go %s\n", strings.Join(testArgs, " "))
	out, err := exec.Command("go", testArgs...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("go test -bench failed: %v\n%s", err, out)
	}
	results, err := parseBenchOutput(string(out))
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results matched %q in:\n%s", *benchRe, out)
	}

	if *update {
		b := Baseline{
			Note:       "Best-of-N substrate microbenchmark results; regenerate with `make bench-baseline` on the reference machine.",
			GoTestArgs: strings.Join(testArgs, " "),
			Benchmarks: results,
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *baselinePath, len(results))
		return nil
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline (run `make bench-baseline` to create it): %w", err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", *baselinePath, err)
	}
	overrides, err := parseTight(*tight)
	if err != nil {
		return err
	}
	return compare(base, results, *threshold, overrides)
}

// parseTight parses "Name=0.02,Other=0.05" into per-benchmark
// threshold overrides.
func parseTight(s string) (map[string]float64, error) {
	out := map[string]float64{}
	if s == "" {
		return out, nil
	}
	for _, pair := range strings.Split(s, ",") {
		name, frac, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad -tight entry %q (want name=frac)", pair)
		}
		v, err := strconv.ParseFloat(frac, 64)
		if err != nil || v <= 0 || v >= 1 {
			return nil, fmt.Errorf("bad -tight fraction %q (want a number in (0,1))", frac)
		}
		out[name] = v
	}
	return out, nil
}

// benchLine matches one `go test -bench -benchmem` result line, e.g.
//
//	BenchmarkEngineEvents-4   72320184   14.59 ns/op   0 B/op   0 allocs/op
//
// (the -GOMAXPROCS suffix is optional: it is absent when GOMAXPROCS=1).
var benchLine = regexp.MustCompile(
	`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+([0-9.]+) allocs/op)?`)

// parseBenchOutput reduces repeated runs to best-of-N: minimum ns/op
// (least scheduler interference) and maximum B/op and allocs/op (the
// most conservative allocation reading).
func parseBenchOutput(out string) (map[string]Result, error) {
	results := map[string]Result{}
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		var bytes, allocs float64
		if m[3] != "" {
			if bytes, err = strconv.ParseFloat(m[3], 64); err != nil {
				return nil, fmt.Errorf("bad B/op in %q: %w", line, err)
			}
		}
		if m[4] != "" {
			if allocs, err = strconv.ParseFloat(m[4], 64); err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", line, err)
			}
		}
		r, ok := results[name]
		if !ok {
			results[name] = Result{NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
		} else {
			if ns < r.NsPerOp {
				r.NsPerOp = ns
			}
			if bytes > r.BytesPerOp {
				r.BytesPerOp = bytes
			}
			if allocs > r.AllocsPerOp {
				r.AllocsPerOp = allocs
			}
			results[name] = r
		}
	}
	return results, nil
}

// compare gates got against base, printing one line per benchmark and
// returning an error describing every violation. overrides narrows the
// tolerance band for individual benchmarks.
func compare(base Baseline, got map[string]Result, threshold float64, overrides map[string]float64) error {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	for _, name := range names {
		b := base.Benchmarks[name]
		g, ok := got[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but not measured (renamed or deleted?)", name))
			continue
		}
		threshold := threshold
		if t, ok := overrides[name]; ok {
			threshold = t
		}
		ratio := g.OpsPerSec() / b.OpsPerSec()
		status := "ok"
		switch {
		case g.AllocsPerOp > b.AllocsPerOp:
			status = "ALLOC REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f allocs/op, baseline %.0f — the hot path started allocating",
				name, g.AllocsPerOp, b.AllocsPerOp))
		case ratio < 1-threshold:
			status = "THROUGHPUT REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s: %.3g ops/sec vs baseline %.3g (%.1f%% drop, tolerance %.0f%%)",
				name, g.OpsPerSec(), b.OpsPerSec(), (1-ratio)*100, threshold*100))
		case ratio > 1+threshold:
			status = "improved"
		}
		fmt.Printf("%-22s %10.2f ns/op (base %10.2f)  %3.0f allocs/op (base %3.0f)  %+6.1f%%  %s\n",
			name, g.NsPerOp, b.NsPerOp, g.AllocsPerOp, b.AllocsPerOp, (ratio-1)*100, status)
	}
	var newNames []string
	for name := range got {
		if _, ok := base.Benchmarks[name]; !ok {
			newNames = append(newNames, name)
		}
	}
	sort.Strings(newNames)
	for _, name := range newNames {
		fmt.Printf("%-22s new benchmark, not in baseline (run `make bench-baseline` to add)\n", name)
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Printf("all %d gated benchmarks within %.0f%% of baseline\n", len(names), threshold*100)
	return nil
}
