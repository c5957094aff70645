// Package analysis is a small, self-contained reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: Analyzer, Pass, Diagnostic,
// and a runner that applies analyzers to type-checked packages. It exists
// because this repository deliberately has no third-party dependencies —
// the simulator's invariants (determinism, zero-alloc hot paths, cycle
// accounting) are enforced by custom passes built on the standard
// library's go/ast, go/types and go/importer only, so `go run ./cmd/lkvet`
// works on a machine with nothing but the Go toolchain installed.
//
// The shapes intentionally mirror go/analysis so the passes could be
// ported to a real multichecker with mechanical changes if the dependency
// policy ever relaxes.
//
// # Suppression
//
// A diagnostic can be suppressed with an annotation comment on the same
// line as the offending code, or on the line directly above it:
//
//	//lkvet:allow <analyzer> <reason>
//
// The reason is mandatory: an annotation is a reviewed, documented
// exception, not a mute button. Malformed annotations (missing analyzer
// name, unknown analyzer name, missing reason) and annotations that do
// not suppress anything are themselves reported, so stale exceptions
// cannot accumulate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// KnownAnalyzers names every analyzer shipped with lkvet. The runner uses
// it to validate //lkvet:allow annotations; keeping the list here (names
// only) avoids an import cycle between the framework and the passes.
var KnownAnalyzers = []string{"simdeterminism", "hotalloc", "uncharged", "lockguard"}

// MetaAnalyzer is the analyzer name under which the runner reports
// annotation-hygiene problems (malformed or unused //lkvet:allow).
const MetaAnalyzer = "lkvet"

// Analyzer describes one static check. Run inspects a single package per
// call and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lkvet:allow annotations. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check. It may return an error for internal
	// failures (not for findings — those go through Pass.Reportf).
	Run func(*Pass) error
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *Package
	Types     *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Runner applies a set of analyzers to loaded packages and post-processes
// the findings through the annotation layer.
type Runner struct {
	Analyzers []*Analyzer
	// Known lists analyzer names accepted in //lkvet:allow annotations.
	// Defaults to KnownAnalyzers plus the names of Analyzers, so a run
	// of a single pass still accepts (and ignores) annotations for the
	// other shipped passes.
	Known []string
}

// Run executes every analyzer over every package, applies //lkvet:allow
// suppression, and appends annotation-hygiene diagnostics. The result is
// sorted by position for deterministic output.
func (r *Runner) Run(pkgs []*Package) ([]Diagnostic, error) {
	known := map[string]bool{}
	for _, n := range r.Known {
		known[n] = true
	}
	for _, n := range KnownAnalyzers {
		known[n] = true
	}
	ran := map[string]bool{}
	for _, a := range r.Analyzers {
		known[a.Name] = true
		ran[a.Name] = true
	}

	var all []Diagnostic
	for _, pkg := range pkgs {
		anns, annDiags := collectAllows(pkg.Fset, pkg.Files, known)
		all = append(all, annDiags...)

		var diags []Diagnostic
		for _, a := range r.Analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg,
				Types:     pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		all = append(all, suppress(diags, anns)...)

		// An annotation for an analyzer that ran but matched nothing is
		// stale: the violation it excused has been fixed or moved.
		for _, ann := range anns {
			if ann.used || !ran[ann.analyzer] {
				continue
			}
			all = append(all, Diagnostic{
				Position: ann.pos,
				Analyzer: MetaAnalyzer,
				Message: fmt.Sprintf("unused //lkvet:allow %s annotation: no %s diagnostic on this line or the next",
					ann.analyzer, ann.analyzer),
			})
		}
	}

	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return all, nil
}

// suppress drops diagnostics excused by an allow annotation on the same
// line or the line above, marking the annotations used.
func suppress(diags []Diagnostic, anns []*allowAnn) []Diagnostic {
	byLine := map[allowKey]*allowAnn{}
	for _, ann := range anns {
		byLine[allowKey{ann.pos.Filename, ann.pos.Line, ann.analyzer}] = ann
	}
	kept := diags[:0]
	for _, d := range diags {
		ann := byLine[allowKey{d.Position.Filename, d.Position.Line, d.Analyzer}]
		if ann == nil {
			ann = byLine[allowKey{d.Position.Filename, d.Position.Line - 1, d.Analyzer}]
		}
		if ann != nil {
			ann.used = true
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// --- shared type-resolution helpers used by the passes ---

// CalleeFunc resolves the function or method a call expression invokes,
// or nil for builtins, conversions and dynamic calls through function
// values or interfaces.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call (pkg.Fn): no Selection entry.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// IsMethod reports whether fn is the method pkgPath.(recv).name, where
// recv is the receiver's named-type name (pointerness ignored).
func IsMethod(fn *types.Func, pkgPath, recv, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	r := fn.Type().(*types.Signature).Recv()
	if r == nil {
		return false
	}
	t := r.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == recv
}

// PointerShaped reports whether boxing a value of type t into an
// interface allocates nothing: pointers, funcs, channels, maps, unsafe
// pointers and interface-to-interface conversions are a single word the
// runtime stores directly; everything else (ints, strings, slices,
// structs, arrays, floats, bools) is copied to the heap.
func PointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Signature, *types.Chan, *types.Map, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}
