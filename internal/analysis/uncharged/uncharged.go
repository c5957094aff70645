// Package uncharged enforces the cycle-accounting invariant of the CPU
// model: simulated work costs simulated cycles. The paper's entire
// argument rests on this — livelock is visible only because interrupt
// work is charged against the one resource user processes need — so work
// that slips past the accounting quietly falsifies every utilization and
// starvation figure. The pass flags:
//
//   - Task.Post — or its dispatch variants PostCenter, PostLocked and
//     PostLockedTail — with a constant zero cost and a non-nil action: the work item runs
//     but charges nothing;
//   - run hooks (CPU.SetRunHook) that re-enter the CPU via Task.Post,
//     which the cpu package documents as forbidden;
//   - callbacks scheduled directly on the sim engine, or bound to a
//     sim.Timer by Timer.Init, in packages that use the CPU model, whose
//     entire (same-package, depth-limited) call tree provably never
//     posts CPU work: state changes that should have been routed
//     through a cpu.Task and charged.
//
// The third check is deliberately conservative: a call the analyzer
// cannot resolve — cross-package, through an interface, or via a
// function value — is assumed to charge cycles, so only demonstrably
// free work is reported. Intentionally free callbacks (traffic sources
// model external hosts, not the router's CPU) carry //lkvet:allow
// annotations stating exactly that.
package uncharged

import (
	"go/ast"
	"go/constant"
	"go/types"

	"livelock/internal/analysis"
)

const (
	simPath = "livelock/internal/sim"
	cpuPath = "livelock/internal/cpu"

	// maxDepth bounds the same-package call-tree walk. The repo's
	// trampoline idiom (callback → method → helpers) is two or three
	// levels deep; four catches it with margin while keeping the walk
	// cheap.
	maxDepth = 4
)

// Analyzer is the uncharged pass.
var Analyzer = &analysis.Analyzer{
	Name: "uncharged",
	Doc: "flag CPU work that escapes cycle accounting: zero-cost posts, " +
		"re-entrant run hooks, and engine callbacks that never charge",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// The cpu package itself is the accounting implementation; every
	// other package is audited only if it actually uses the CPU model.
	if pass.Pkg.ImportPath == cpuPath {
		return nil
	}
	if !importsCPU(pass) {
		return nil
	}
	decls := declIndex(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			switch {
			case analysis.IsMethod(fn, cpuPath, "Task", "Post") && len(call.Args) == 2:
				checkZeroPost(pass, call, "Post", call.Args[0], call.Args[1])
			case analysis.IsMethod(fn, cpuPath, "Task", "PostCenter") && len(call.Args) == 3:
				checkZeroPost(pass, call, "PostCenter", call.Args[0], call.Args[2])
			case analysis.IsMethod(fn, cpuPath, "Task", "PostLocked") && len(call.Args) == 4:
				checkZeroPost(pass, call, "PostLocked", call.Args[1], call.Args[3])
			case analysis.IsMethod(fn, cpuPath, "Task", "PostLockedTail") && len(call.Args) == 5:
				checkZeroPost(pass, call, "PostLockedTail", call.Args[1], call.Args[4])
			case analysis.IsMethod(fn, cpuPath, "CPU", "SetRunHook") && len(call.Args) == 1:
				checkRunHook(pass, call, decls)
			case analysis.IsMethod(fn, simPath, "Timer", "Init") && len(call.Args) == 3:
				checkEngineCallback(pass, call, call.Args[0], decls)
			case isScheduling(fn) && len(call.Args) >= 2:
				checkEngineCallback(pass, call, call.Args[1], decls)
			}
			return true
		})
	}
	return nil
}

func importsCPU(pass *analysis.Pass) bool {
	for _, imp := range pass.Types.Imports() {
		if imp.Path() == cpuPath {
			return true
		}
	}
	return false
}

func isScheduling(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "At", "After", "AtCall", "AfterCall":
		return analysis.IsMethod(fn, simPath, "Engine", fn.Name())
	}
	return false
}

// checkZeroPost flags a dispatch call whose constant cost is zero and
// whose action is non-nil: the action runs without consuming any
// simulated CPU. The cost and action sit at different argument
// positions per variant (Post(cost, fn), PostCenter(cost, center, fn),
// PostLocked(lock, cost, center, fn), PostLockedTail(lock, cost, tail,
// center, fn)), so callers pass them explicitly.
func checkZeroPost(pass *analysis.Pass, call *ast.CallExpr, method string, costArg, fnArg ast.Expr) {
	costTV, ok := pass.TypesInfo.Types[costArg]
	if !ok || costTV.Value == nil || constant.Sign(costTV.Value) != 0 {
		return
	}
	if fnID, ok := ast.Unparen(fnArg).(*ast.Ident); ok && fnID.Name == "nil" {
		return // pure bookkeeping item: legal way to sequence behind queued work
	}
	pass.Reportf(call.Pos(),
		"Task.%s with zero cost runs work without charging CPU cycles: pass the real cost (or nil fn for bookkeeping)", method)
}

// checkRunHook flags run hooks that re-enter the CPU; SetRunHook's
// contract says the hook must only observe.
func checkRunHook(pass *analysis.Pass, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl) {
	w := &walker{pass: pass, decls: decls}
	w.walkCallee(call.Args[0], 0)
	if w.posts {
		pass.Reportf(call.Args[0].Pos(),
			"run hook re-enters the CPU via Task.Post: SetRunHook callbacks must only observe scheduling, never create work")
	}
}

// checkEngineCallback flags an engine callback (cb, scheduled or bound
// to a Timer by call) whose whole resolvable call tree does work without
// ever posting to a cpu.Task.
func checkEngineCallback(pass *analysis.Pass, call *ast.CallExpr, cb ast.Expr, decls map[*types.Func]*ast.FuncDecl) {
	w := &walker{pass: pass, decls: decls}
	w.walkCallee(cb, 0)
	if w.posts || w.unresolved || w.calls == 0 {
		return
	}
	pass.Reportf(call.Pos(),
		"engine-scheduled callback does work without charging CPU cycles (no Task.Post on any path): route it through a cpu.Task, or annotate why this work is free")
}

// declIndex maps the package's function and method objects to their
// declarations so the walker can descend into same-package calls.
func declIndex(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	idx := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				idx[fn] = fd
			}
		}
	}
	return idx
}

// walker explores a callback's same-package call tree.
type walker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl

	visited    map[*types.Func]bool
	posts      bool // a Task.Post call is reachable
	unresolved bool // some call could not be resolved; assume it charges
	calls      int  // resolved function/method calls seen
}

// walkCallee resolves a callback expression (func literal, package-level
// function, or method value) and walks its body.
func (w *walker) walkCallee(expr ast.Expr, depth int) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		w.walkBody(e.Body, depth)
		return
	case *ast.Ident, *ast.SelectorExpr:
		if fn := calleeObj(w.pass, e); fn != nil {
			w.walkFunc(fn, depth)
			return
		}
	}
	w.unresolved = true
}

func calleeObj(pass *analysis.Pass, expr ast.Expr) *types.Func {
	switch e := expr.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pass.TypesInfo.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isTaskPost reports whether fn is any cpu.Task dispatch variant that
// charges cycles: Post, PostCenter (explicit cost center), PostLocked
// (critical section — spin and hold are both charged), or
// PostLockedTail (a cost split into an unlocked body and a locked
// tail). The kernel's per-packet paths dispatch almost exclusively
// through the latter three, so a walker that only knew Post would flag
// them as free.
func isTaskPost(fn *types.Func) bool {
	switch fn.Name() {
	case "Post", "PostCenter", "PostLocked", "PostLockedTail":
		return analysis.IsMethod(fn, cpuPath, "Task", fn.Name())
	}
	return false
}

func pkgPath(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

func (w *walker) walkFunc(fn *types.Func, depth int) {
	if w.posts {
		return
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != w.pass.Pkg.ImportPath {
		w.unresolved = true // cross-package: assume it charges
		return
	}
	if w.visited == nil {
		w.visited = map[*types.Func]bool{}
	}
	if w.visited[fn] {
		return
	}
	w.visited[fn] = true
	decl := w.decls[fn]
	if decl == nil {
		w.unresolved = true
		return
	}
	if depth >= maxDepth {
		w.unresolved = true
		return
	}
	w.walkBody(decl.Body, depth+1)
}

func (w *walker) walkBody(body *ast.BlockStmt, depth int) {
	ast.Inspect(body, func(n ast.Node) bool {
		if w.posts {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Type conversions and builtins (append, len, ...) do no work.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			switch w.pass.TypesInfo.Uses[id].(type) {
			case *types.Builtin, *types.TypeName:
				return true
			}
		}
		if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion via qualified or composite type
		}
		fn := analysis.CalleeFunc(w.pass.TypesInfo, call)
		if fn == nil {
			w.unresolved = true // function value or interface method
			return true
		}
		if isTaskPost(fn) {
			w.posts = true
			return false
		}
		// Engine scheduling and stats counters are bookkeeping, not
		// work: they charge nothing and never will, so they neither
		// satisfy the invariant nor make the tree unresolvable. Without
		// this, every self-rescheduling callback (the repo's periodic
		// timer idiom) would count as unresolved and escape the check.
		if p := pkgPath(fn); p == simPath || p == "livelock/internal/stats" {
			return true
		}
		w.calls++
		w.walkFunc(fn, depth)
		return true
	})
}
