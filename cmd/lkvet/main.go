// Command lkvet is the repository's static-invariant checker: a
// multichecker that runs the custom passes in internal/analysis —
// simdeterminism, hotalloc, uncharged and lockguard — over the
// simulation packages, optionally alongside `go vet`.
//
// The passes enforce properties the test suite can only observe after
// the fact: runs are pure functions of (config, seed), the event-engine
// hot path stays allocation-free, simulated work charges simulated
// cycles, and lock-guarded shared state is only touched under its
// declared lock in a cycle-free acquisition order. Violations are fixed
// or excused inline with //lkvet:allow <analyzer> <reason>; stale or
// malformed excuses are themselves errors, so the exception list can
// only shrink.
//
// Usage:
//
//	lkvet [-vet] [-list] [-json] [-gh] [packages...]
//
// Package patterns default to ./internal/... — the audited surface. Test
// files are not analyzed: tests legitimately use wall clocks and
// unsorted iteration. -json emits one machine-readable object per
// diagnostic; -gh emits GitHub Actions ::error annotations alongside
// the plain lines so CI surfaces findings on the diff view.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"livelock/internal/analysis"
	"livelock/internal/analysis/hotalloc"
	"livelock/internal/analysis/lockguard"
	"livelock/internal/analysis/simdeterminism"
	"livelock/internal/analysis/uncharged"
)

var analyzers = []*analysis.Analyzer{
	simdeterminism.Analyzer,
	hotalloc.Analyzer,
	uncharged.Analyzer,
	lockguard.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lkvet", flag.ExitOnError)
	fs.SetOutput(stderr)
	runVet := fs.Bool("vet", false, "also run `go vet` over the same packages")
	list := fs.Bool("list", false, "list the analyzers and exit")
	asJSON := fs.Bool("json", false, "emit diagnostics as JSON objects, one per line")
	asGH := fs.Bool("gh", false, "also emit GitHub Actions ::error annotations")
	fs.Parse(args)

	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/..."}
	}

	pkgs, err := expand(patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	loader := analysis.NewLoader()
	var loaded []*analysis.Package
	for _, p := range pkgs {
		pkg, err := loader.Load(p.dir, p.importPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		loaded = append(loaded, pkg)
	}

	runner := &analysis.Runner{Analyzers: analyzers}
	diags, err := runner.Run(loaded)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, d := range diags {
		switch {
		case *asJSON:
			enc, err := json.Marshal(jsonDiag{
				File:     d.Position.Filename,
				Line:     d.Position.Line,
				Column:   d.Position.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			fmt.Fprintln(stdout, string(enc))
		default:
			fmt.Fprintln(stdout, d)
			if *asGH {
				// GitHub's annotation grammar: property values are
				// comma/colon-delimited, so the free-text message must
				// have its newlines and percents URL-style escaped.
				fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=lkvet %s::%s\n",
					d.Position.Filename, d.Position.Line, d.Position.Column,
					d.Analyzer, ghEscape(d.Message))
			}
		}
	}

	exit := 0
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "lkvet: %d problem(s) in %d package(s)\n", len(diags), len(loaded))
		exit = 1
	}
	if *runVet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			exit = 1
		}
	}
	return exit
}

// jsonDiag is the -json wire shape: stable field names, one object per
// line, so CI and editors can consume findings without parsing the
// human format.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// ghEscape escapes a message for a GitHub Actions workflow-command
// value (the ::error data segment).
func ghEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

type listedPkg struct {
	dir        string
	importPath string
}

// expand resolves package patterns to directories via the go command.
func expand(patterns []string) ([]listedPkg, error) {
	args := append([]string{"list", "-f", "{{.Dir}}\t{{.ImportPath}}"}, patterns...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok {
			msg = strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("lkvet: go list %s: %s", strings.Join(patterns, " "), msg)
	}
	var pkgs []listedPkg
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line == "" {
			continue
		}
		dir, importPath, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("lkvet: unexpected go list output: %q", line)
		}
		pkgs = append(pkgs, listedPkg{dir: dir, importPath: importPath})
	}
	return pkgs, nil
}
