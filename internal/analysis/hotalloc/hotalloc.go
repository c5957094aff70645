// Package hotalloc guards the allocation-free event-engine hot path.
// The engine's AllocsPerRun gates prove the pooled AtCall/AfterCall
// scheduling path allocates nothing at steady state; this pass catches
// the regressions those gates only see at test time, at the call site
// that introduces them:
//
//   - closure literals and bound method values passed to sim.Engine.At
//     or After (each schedule allocates a closure; the pooled
//     AtCall/AfterCall path with a package-level sim.Callback does not);
//   - capturing closures or method values passed as the Callback to
//     AtCall/AfterCall, which smuggle the same allocation into the
//     pooled path;
//   - non-pointer-shaped values boxed into AtCall/AfterCall's any slots
//     (storing an int or struct in an interface allocates; pointers,
//     funcs, maps and channels do not);
//   - fmt calls inside the packages whose operations are protected by
//     AllocsPerRun gates, where a single Sprintf on a per-packet or
//     per-event path silently reintroduces garbage;
//   - in the packages that post the kernel's per-packet work (kernel,
//     core, nic), capturing closure literals and bound method values
//     passed as the fn of cpu.Task.Post, PostCenter, PostLocked or
//     PostLockedTail. Each evaluation allocates a closure, once per
//     packet, interrupt or tick. Bind the fn once at construction and
//     pass the field; hand per-item state over in a field of its owner
//     (DESIGN.md §11). Fields, variables, package-level funcs and
//     capture-free literals allocate nothing and stay allowed.
package hotalloc

import (
	"go/ast"
	"go/types"

	"livelock/internal/analysis"
)

const (
	simPath = "livelock/internal/sim"
	cpuPath = "livelock/internal/cpu"
)

// DefaultFmtPackages lists the import paths whose per-operation hot paths
// are protected by AllocsPerRun gates and where fmt is therefore banned
// outside Stringer implementations, panic messages and io.Writer-taking
// exporters. metrics is gated too, but only its sampler tick; its
// exporters take concrete writer types rather than io.Writer, so it is
// deliberately absent here.
var DefaultFmtPackages = map[string]bool{
	"livelock/internal/sim":      true,
	"livelock/internal/queue":    true,
	"livelock/internal/netstack": true,
	"livelock/internal/trace":    true,
	"livelock/internal/prof":     true,
}

// DefaultPostPackages lists the import paths whose cpu.Task posts run
// once per packet, interrupt or tick, and whose steady state the kernel
// package's zero-allocation test pins.
var DefaultPostPackages = map[string]bool{
	"livelock/internal/kernel": true,
	"livelock/internal/core":   true,
	"livelock/internal/nic":    true,
}

// Analyzer is the hotalloc pass with the default configuration.
var Analyzer = New(DefaultFmtPackages, DefaultPostPackages)

// New returns a hotalloc analyzer applying the fmt rule and the Post
// rule to the given package import paths (fixtures substitute their
// own).
func New(fmtPackages, postPackages map[string]bool) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "hotalloc",
		Doc: "flag allocation sources on the event-engine hot path: closures to " +
			"At/After, boxing in AtCall/AfterCall arguments, fmt in gated packages, " +
			"closures and method values posted to cpu.Task in the kernel packages",
		Run: func(pass *analysis.Pass) error { return run(pass, fmtPackages, postPackages) },
	}
}

func run(pass *analysis.Pass, fmtPackages, postPackages map[string]bool) error {
	checkPosts := postPackages[pass.Pkg.ImportPath]
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkSchedule(pass, call)
				if checkPosts {
					checkPost(pass, call)
				}
			}
			return true
		})
	}
	if fmtPackages[pass.Pkg.ImportPath] {
		checkFmt(pass)
	}
	return nil
}

// checkSchedule applies the closure and boxing rules to one call.
func checkSchedule(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch {
	case (analysis.IsMethod(fn, simPath, "Engine", "At") ||
		analysis.IsMethod(fn, simPath, "Engine", "After")) && len(call.Args) == 2:
		arg := ast.Unparen(call.Args[1])
		if _, ok := arg.(*ast.FuncLit); ok {
			pass.Reportf(arg.Pos(),
				"closure literal passed to Engine.%s allocates per schedule: use %sCall with a package-level sim.Callback",
				fn.Name(), fn.Name())
		} else if isMethodValue(pass, arg) {
			pass.Reportf(arg.Pos(),
				"bound method value passed to Engine.%s allocates a closure per schedule: use %sCall with a package-level trampoline",
				fn.Name(), fn.Name())
		}
	case (analysis.IsMethod(fn, simPath, "Engine", "AtCall") ||
		analysis.IsMethod(fn, simPath, "Engine", "AfterCall")) && len(call.Args) == 4:
		cb := ast.Unparen(call.Args[1])
		if lit, ok := cb.(*ast.FuncLit); ok {
			if capt := captures(pass, lit); capt != "" {
				pass.Reportf(cb.Pos(),
					"callback literal captures %s and allocates per schedule: hoist it to a package-level sim.Callback and pass state via the any slots", capt)
			}
		} else if isMethodValue(pass, cb) {
			pass.Reportf(cb.Pos(),
				"bound method value as the %s callback allocates a closure per schedule: pass a package-level trampoline", fn.Name())
		}
		for _, arg := range call.Args[2:] {
			t := pass.TypesInfo.TypeOf(arg)
			if t == nil || analysis.PointerShaped(t) {
				continue
			}
			pass.Reportf(arg.Pos(),
				"%s argument boxes a %s into the any slot, allocating per schedule: pass a pointer to the state instead",
				fn.Name(), t.String())
		}
	}
}

// checkPost applies the bound-once rule to one cpu.Task dispatch call.
func checkPost(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	var fnArg ast.Expr
	switch {
	case analysis.IsMethod(fn, cpuPath, "Task", "Post") && len(call.Args) == 2:
		fnArg = call.Args[1]
	case analysis.IsMethod(fn, cpuPath, "Task", "PostCenter") && len(call.Args) == 3:
		fnArg = call.Args[2]
	case analysis.IsMethod(fn, cpuPath, "Task", "PostLocked") && len(call.Args) == 4:
		fnArg = call.Args[3]
	case analysis.IsMethod(fn, cpuPath, "Task", "PostLockedTail") && len(call.Args) == 5:
		fnArg = call.Args[4]
	default:
		return
	}
	arg := ast.Unparen(fnArg)
	if lit, ok := arg.(*ast.FuncLit); ok {
		if capt := captures(pass, lit); capt != "" {
			pass.Reportf(arg.Pos(),
				"closure literal passed to Task.%s captures %s and allocates per post: bind the fn once at construction and hand per-item state over in a field", fn.Name(), capt)
		}
	} else if isMethodValue(pass, arg) {
		pass.Reportf(arg.Pos(),
			"bound method value passed to Task.%s allocates a closure per post: bind it once at construction and pass the field", fn.Name())
	}
}

// isMethodValue reports whether expr is a bound method value (x.M where M
// is a method and x is a value): evaluating one allocates a closure.
func isMethodValue(pass *analysis.Pass, expr ast.Expr) bool {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	_, isFunc := s.Obj().(*types.Func)
	return isFunc && s.Kind() == types.MethodVal
}

// captures names one variable a func literal closes over, or "" if the
// literal is capture-free (a capture-free literal compiles to a static
// function and allocates nothing).
func captures(pass *analysis.Pass, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are referenced directly, not captured.
		if v.Parent() == pass.Types.Scope() || v.Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			name = id.Name
		}
		return true
	})
	return name
}

// checkFmt reports fmt calls in gated packages, sparing the places that
// are cold by construction: Stringer-style formatting methods and panic
// arguments.
func checkFmt(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv != nil {
				switch fd.Name.Name {
				case "String", "Error", "Format", "GoString":
					continue
				}
			}
			// A function that takes an io.Writer is an exporter: it
			// formats output by contract and never runs per packet or
			// per event.
			if takesWriter(pass, fd) {
				continue
			}
			checkFmtIn(pass, fd.Body)
		}
	}
}

// takesWriter reports whether any parameter of fd is an io.Writer.
func takesWriter(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if t := pass.TypesInfo.TypeOf(field.Type); t != nil && t.String() == "io.Writer" {
			return true
		}
	}
	return false
}

func checkFmtIn(pass *analysis.Pass, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Anything feeding a panic is off the hot path by definition.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				return false
			}
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(),
				"fmt.%s allocates and this package's hot paths are protected by AllocsPerRun gates: build the string without fmt or move formatting out of this package", fn.Name())
		}
		return true
	})
}
