// Command lkstat records one instrumented trial as a time-series: every
// registered instrument (queue depths, ring occupancy, per-IPL CPU
// utilization, drop and ICMP counters, poller activity) sampled on a
// fixed simulated-time interval. Where lksim reports end-of-run
// aggregates, lkstat shows the transient — livelock onset is visible as
// adjacent rows in which ipintrq.depth pegs at its limit, the delivered
// delta collapses to zero, and cpu.rxipl.util saturates.
//
// Output formats:
//
//	table     aligned text, a curated column subset (-columns overrides)
//	csv       wide CSV, one column per instrument
//	json      schema + sample rows as a single JSON object
//	perfetto  Chrome trace-event JSON (counter tracks, per-task CPU
//	          scheduling spans, packet-lifecycle instants) for
//	          ui.perfetto.dev
//	log       the packet-lifecycle event log (the last -trace records,
//	          or one packet's with -pkt); -profile appends the
//	          cycle-attribution report
//
// The run flags (mode, rate, screend, faults, coalescing, ...) are the
// same as lksim's. All output is deterministic for a given
// configuration and seed.
//
// Examples:
//
//	lkstat -mode unmodified -rate 8000 -format csv
//	lkstat -mode unmodified -screend -rate 8000           # full livelock
//	lkstat -mode polled -quota 5 -rate 12000 -format perfetto -out trace.json
//	lkstat -mode unmodified -screend -rate 9000 -for 20ms -format log
//	lkstat -mode polled -rate 8000 -for 20ms -format log -pkt 42
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"livelock"
	"livelock/internal/prof"
	"livelock/internal/runflags"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lkstat:", err)
		os.Exit(1)
	}
}

// defaultTableColumns is the curated livelock-onset view: offered vs
// delivered per interval, where packets are queued or dropped, and who
// owns the CPU.
var defaultTableColumns = []string{
	"gen.sent", "delivered",
	"ipintrq.depth", "ipintrq.drops", "screendq.depth", "ifq.out0.depth",
	"in0.idiscards",
	"cpu.rxipl.util", "cpu.user.util", "cpu.idle.util",
}

// runTimeline is the run behind every format; tests replace it.
var runTimeline = livelock.RunTimeline

// formats are the -format values; log is the packet-lifecycle dump.
var formats = map[string]bool{"table": true, "csv": true, "json": true, "perfetto": true, "log": true}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lkstat", flag.ContinueOnError)
	fs.SetOutput(w)
	rf := runflags.Bind(fs)
	interval := fs.Duration("interval", 10*time.Millisecond, "simulated sampling interval")
	runFor := fs.Duration("for", time.Second, "simulated run length")
	format := fs.String("format", "table", "output format: table, csv, json, perfetto, log")
	out := fs.String("out", "", "output file (default stdout)")
	columns := fs.String("columns", "", "comma-separated column subset for -format table")
	traceCap := fs.Int("trace", 4096, "packet-lifecycle ring size for -format perfetto and log; 0 = off (perfetto only)")
	pkt := fs.Uint64("pkt", 0, "-format log: dump only this packet id (0 = all)")
	profile := fs.Bool("profile", false, "attach the cycle-attribution profiler (prof.* columns, diagnosis events; -format log appends its report)")
	folded := fs.String("folded", "", "write folded cycle-attribution stacks (flamegraph input) to this file; implies -profile")
	validate := fs.String("validate", "", "validate a previously written JSON/Perfetto file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *validate != "" {
		return validateFile(w, *validate)
	}

	cfg, rate, err := rf.Config()
	if err != nil {
		return err
	}
	switch {
	case !formats[*format]:
		return fmt.Errorf("unknown format %q", *format)
	case *format == "log" && *traceCap <= 0:
		return fmt.Errorf("-format log needs a positive -trace ring size, got %d", *traceCap)
	case *pkt != 0 && *format != "log":
		return fmt.Errorf("-pkt applies only to -format log")
	}

	opts := livelock.TimelineOptions{
		Interval: livelock.Duration((*interval).Nanoseconds()),
		RunFor:   livelock.Duration((*runFor).Nanoseconds()),
		Spans:    *format == "perfetto",
		Profile:  *profile || *folded != "",
	}
	if *format == "perfetto" || *format == "log" {
		opts.TraceCap = *traceCap
	}
	res, err := runTimeline(cfg, rate, opts)
	if err != nil {
		return err
	}

	if *folded != "" {
		if err := os.WriteFile(*folded, []byte(res.Folded), 0o644); err != nil {
			return err
		}
	}

	write := func(dst io.Writer) error {
		switch *format {
		case "table":
			cols := defaultTableColumns
			if *columns != "" {
				cols = strings.Split(*columns, ",")
			}
			return res.Series.WriteTable(dst, cols...)
		case "csv":
			return res.Series.WriteCSV(dst)
		case "json":
			return res.Series.WriteJSON(dst)
		case "log":
			return writeLog(dst, res, *pkt)
		default: // perfetto
			p := &livelock.PerfettoTrace{
				Series: res.Series,
				Spans:  res.Spans,
				Events: res.Trace,
			}
			if res.Profile != nil {
				p.Diagnoses = res.Profile.Diagnoses()
			}
			_, err := p.WriteTo(dst)
			return err
		}
	}
	if *out == "" {
		return write(w)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeLog dumps the run's packet-lifecycle records, or only packet
// pkt's when it is nonzero, then the cycle-attribution report if a
// profiler was attached. Under overload on the unmodified kernel the
// log fills with "ipintrq DROP (full)" lines (device work wasted); the
// polled kernel shows ring-to-completion lifecycles and cheap ring
// drops.
func writeLog(w io.Writer, res livelock.TimelineResult, pkt uint64) error {
	tr := res.Trace
	if pkt != 0 {
		for _, rec := range tr.Filter(pkt) {
			fmt.Fprintln(w, rec)
		}
	} else {
		if _, err := tr.WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%d events total (%d retained); delivered=%d\n",
			tr.Total(), len(tr.Records()), res.Delivered)
	}
	return profileReport(w, res.Profile)
}

// profileReport appends the cycle-attribution view of the run: where
// the dropped packets died and how much work they had already consumed,
// how long packets dwell in each stage, the headline wasted-work
// fraction, and any livelock diagnoses the online detector emitted.
func profileReport(w io.Writer, p *prof.Profile) error {
	if p == nil {
		return nil
	}
	useful, wasted := p.UsefulCycles(), p.WastedCycles()
	fmt.Fprintf(w, "\ncycle attribution: useful=%v wasted=%v wasted-frac=%.3f\n",
		useful, wasted, p.WastedFrac())
	fmt.Fprintf(w, "\ndrop provenance:\n")
	if err := p.WriteDropTable(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nper-stage dwell times:\n")
	if err := p.WriteDwell(w); err != nil {
		return err
	}
	if p.DiagnosisTotal() > 0 {
		fmt.Fprintf(w, "\nlivelock diagnoses:\n")
		if err := p.WriteDiagnoses(w); err != nil {
			return err
		}
	}
	return nil
}

// validateFile checks that a JSON or Perfetto export parses and has the
// expected top-level shape; CI uses it to gate artifact uploads without
// external tooling.
func validateFile(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: invalid JSON: %v", path, err)
	}
	if raw, ok := doc["traceEvents"]; ok {
		var events []map[string]any
		if err := json.Unmarshal(raw, &events); err != nil {
			return fmt.Errorf("%s: traceEvents is not an event array: %v", path, err)
		}
		if len(events) == 0 {
			return fmt.Errorf("%s: empty traceEvents", path)
		}
		fmt.Fprintf(w, "%s: valid Perfetto trace, %d events\n", path, len(events))
		return nil
	}
	if raw, ok := doc["samples"]; ok {
		var samples []map[string]any
		if err := json.Unmarshal(raw, &samples); err != nil {
			return fmt.Errorf("%s: samples is not an array: %v", path, err)
		}
		fmt.Fprintf(w, "%s: valid timeline, %d samples\n", path, len(samples))
		return nil
	}
	return fmt.Errorf("%s: neither a Perfetto trace nor a timeline export", path)
}
