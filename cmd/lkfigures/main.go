// Command lkfigures regenerates the paper's evaluation figures as text
// tables or CSV.
//
// Usage:
//
//	lkfigures                  # all figures, text tables on stdout
//	lkfigures -fig 6-4         # one figure
//	lkfigures -fig latency     # the §4.3 burst-latency comparison
//	lkfigures -fig mlfrr       # MLFRR estimates for the main kernels
//	lkfigures -csv -out dir    # write <dir>/fig-<id>.csv files
//	lkfigures -measure 3s      # measurement window per point
//	lkfigures -parallel 4      # bound the trial worker pool (0 = all cores)
//	lkfigures -progress        # sweep progress (figure points) on stderr
//	lkfigures -cpuprofile p.out -memprofile m.out -trace t.out
//	                           # profile/trace the run for go tool pprof/trace
//
// The figures' trials run as one plan across a worker pool (all CPU
// cores by default), each distinct trial once. Results are
// deterministic: every worker count, including -parallel 1 (fully
// serial), produces byte-identical tables and CSV, and a figure run
// alone matches its block under -fig all.
// A trial that fails its audit or panics is reported on stderr; every
// figure is still written, and then lkfigures exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"livelock"
)

// allFigures runs every figure; tests replace it to inject trial
// failures.
var allFigures = livelock.AllFigures

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lkfigures:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lkfigures", flag.ContinueOnError)
	fs.SetOutput(w)
	figID := fs.String("fig", "all", `figure to run: 6-1, 6-3, 6-4, 6-5, 6-6, 7-1, W-1, S-1, S-2, T-1, T-2, "latency", "mlfrr", "clocked", "tcp" or "all"`)
	csv := fs.Bool("csv", false, "emit CSV instead of text tables")
	asPlot := fs.Bool("plot", false, "render text scatter plots instead of tables")
	outDir := fs.String("out", "", "directory for per-figure CSV files (implies -csv)")
	measure := fs.Duration("measure", 3*time.Second, "simulated measurement window per point")
	warmup := fs.Duration("warmup", 500*time.Millisecond, "simulated warmup excluded from measurement")
	seed := fs.Uint64("seed", 1, "simulation seed")
	parallel := fs.Int("parallel", 0, "concurrent trials per sweep; 0 = all CPU cores, 1 = serial")
	cpus := fs.Int("cpus", 0, "run every trial with this many virtual CPUs (0 = per-figure default; S-1/S-2, 7-1 and the TCP figures ignore it)")
	irqcpus := fs.Int("irqcpus", 0, "with -cpus: cores dedicated to interrupt handling in polled mode")
	progress := fs.Bool("progress", false, "report sweep progress on stderr: figure points done of the whole sweep")
	timelineDir := fs.String("timeline-dir", "", "also write overload timeline CSVs for the headline kernel configurations to this directory")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after the run) to this file")
	execTrace := fs.String("trace", "", "write a runtime execution trace of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return err
		}
		defer trace.Stop()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // materialize the final live set
			pprof.WriteHeapProfile(f)
			f.Close()
		}()
	}
	opts := livelock.Options{
		Warmup:   livelock.Duration(warmup.Nanoseconds()),
		Measure:  livelock.Duration(measure.Nanoseconds()),
		Seed:     *seed,
		Parallel: *parallel,
		CPUs:     *cpus,
		IRQCPUs:  *irqcpus,
	}
	// A zero flag is an explicit request, not "use the default".
	if *warmup == 0 {
		opts.Warmup = livelock.ZeroWarmup
	}
	if *measure == 0 {
		opts.Measure = livelock.ZeroMeasure
	}
	if *progress {
		opts.Progress = func(done, total int, elapsed time.Duration) {
			fmt.Fprintf(os.Stderr, "\r%4d/%d points  %6.1fs", done, total, elapsed.Seconds())
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	if *timelineDir != "" {
		if err := writeTimelines(w, *timelineDir, *seed); err != nil {
			return err
		}
	}

	switch *figID {
	case "latency":
		return livelock.WriteBurstLatencyTable(w, opts)
	case "mlfrr":
		return writeMLFRR(w, opts)
	case "clocked":
		return livelock.WriteClockedTable(w, opts)
	case "tcp":
		return livelock.WriteTCPTable(w, opts)
	}

	var figs []livelock.Figure
	if *figID == "all" {
		figs = allFigures(opts)
	} else {
		runner := livelock.FigureByID(*figID)
		if runner == nil {
			return fmt.Errorf("unknown figure %q", *figID)
		}
		figs = []livelock.Figure{runner(opts)}
	}

	failed := 0
	for _, fig := range figs {
		// A failed or panicking trial does not kill the sweep; surface
		// what failed next to the (zero-valued) points it left behind,
		// write every figure, then fail the run.
		for _, te := range fig.Errors {
			fmt.Fprintf(os.Stderr, "lkfigures: %v\n", te)
		}
		failed += len(fig.Errors)
		switch {
		case *outDir != "":
			path := filepath.Join(*outDir, "fig-"+fig.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := fig.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", path)
		case *csv:
			if err := fig.WriteCSV(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		case *asPlot:
			if err := fig.WritePlot(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		default:
			if err := fig.WriteTable(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d trial(s) failed", failed)
	}
	return nil
}

// writeTimelines records one overload timeline per headline kernel
// configuration — the same four arms the MLFRR table compares — so a
// figure sweep can ship the transient view alongside the aggregate
// curves. Rates sit past each arm's saturation point: the unmodified
// arms show livelock onset, the polled arms show the flat plateau.
func writeTimelines(w io.Writer, dir string, seed uint64) error {
	rows := []struct {
		slug string
		cfg  livelock.Config
		rate float64
	}{
		{"unmodified", livelock.Config{Mode: livelock.ModeUnmodified}, 12000},
		{"unmodified-screend", livelock.Config{Mode: livelock.ModeUnmodified, Screend: true}, 8000},
		{"polled", livelock.Config{Mode: livelock.ModePolled, Quota: 5}, 12000},
		{"polled-screend-feedback", livelock.Config{
			Mode: livelock.ModePolled, Quota: 10, Screend: true, Feedback: true}, 8000},
	}
	for _, row := range rows {
		row.cfg.Seed = seed
		res, err := livelock.RunTimeline(row.cfg, row.rate, livelock.TimelineOptions{})
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "timeline-"+row.slug+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := res.Series.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return nil
}

func writeMLFRR(w io.Writer, opts livelock.Options) error {
	rows := []struct {
		name string
		cfg  livelock.Config
	}{
		{"unmodified", livelock.Config{Mode: livelock.ModeUnmodified}},
		{"unmodified + screend", livelock.Config{Mode: livelock.ModeUnmodified, Screend: true}},
		{"polled (quota 5)", livelock.Config{Mode: livelock.ModePolled, Quota: 5}},
		{"polled + screend + feedback", livelock.Config{
			Mode: livelock.ModePolled, Quota: 10, Screend: true, Feedback: true}},
	}
	cfgs := make([]livelock.Config, len(rows))
	for i, row := range rows {
		cfgs[i] = row.cfg
	}
	ms, errs := livelock.MLFRRs(cfgs, 0.98, opts)
	fmt.Fprintln(w, "MLFRR estimates (98% loss-free, §3):")
	for i, row := range rows {
		if errs[i] != nil {
			return errs[i]
		}
		if _, err := fmt.Fprintf(w, "  %-30s %6.0f pkts/sec\n", row.name, ms[i]); err != nil {
			return err
		}
	}
	return nil
}
