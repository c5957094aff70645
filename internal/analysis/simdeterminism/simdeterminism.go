// Package simdeterminism enforces the reproduction's central measurement
// invariant: a simulation run is a pure function of its configuration and
// seed. The bit-identical golden figures, the differential engine tests
// and deterministic fault replay all assume it. The analyzer forbids the
// three ways wall-world state leaks into simulated results — wall clocks,
// the global math/rand state, and environment reads — and flags map
// iteration whose nondeterministic order can reach exporter output or
// event scheduling.
package simdeterminism

import (
	"go/ast"
	"go/types"

	"livelock/internal/analysis"
)

// Analyzer is the simdeterminism pass.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall-clock time, global math/rand, environment reads, and " +
		"order-sensitive map iteration in simulation code",
	Run: run,
}

// wallClock lists time-package functions that read or schedule against
// the wall clock. Pure construction/formatting (time.Date, Duration
// arithmetic) stays legal.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// randConstructors are the math/rand package-level functions that build
// seeded, self-contained generators rather than touching global state.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

var envReads = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// checkFunc inspects one function body: forbidden calls anywhere, and
// map ranges with their sort lookups scoped to this body.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, n, body)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "time" && wallClock[name]:
		pass.Reportf(call.Pos(),
			"time.%s reads the wall clock: simulation code must use the sim.Engine clock so runs are reproducible", name)
	case (path == "math/rand" || path == "math/rand/v2") &&
		fn.Type().(*types.Signature).Recv() == nil && !randConstructors[name]:
		pass.Reportf(call.Pos(),
			"rand.%s uses the global math/rand state, which is shared and unseeded: draw from the trial's sim.RNG stream", name)
	case path == "os" && envReads[name]:
		pass.Reportf(call.Pos(),
			"os.%s makes results depend on the environment: thread configuration through explicit Config fields", name)
	}
}

// checkMapRange flags `for ... range m` over a map when the loop body
// contains an order-sensitive sink: formatted or written output, event
// scheduling, or an append to a slice that the enclosing function never
// sorts. Order-insensitive aggregation (sums, counters, lookups) passes.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, enclosing *ast.BlockStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if why := sinkCall(pass, call, enclosing); why != "" {
			pass.Reportf(rng.Pos(),
				"map iteration order is nondeterministic and this loop %s: iterate a sorted key slice instead", why)
			return false
		}
		return true
	})
}

// sinkCall classifies a call inside a map-range body. It returns a
// human-readable reason when the call makes iteration order observable,
// or "" when it is harmless.
func sinkCall(pass *analysis.Pass, call *ast.CallExpr, enclosing *ast.BlockStmt) string {
	// append(s, ...) is the collect-then-sort idiom — fine exactly when
	// the enclosing function sorts the slice afterwards.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			if dest, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[dest]; obj != nil && !sortedLater(pass, obj, enclosing) {
					return "appends to " + dest.Name + ", which is never sorted"
				}
			}
			return ""
		}
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return "formats output with fmt." + fn.Name()
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
		if fn.Type().(*types.Signature).Recv() != nil {
			return "writes output via " + fn.Name()
		}
	case "At", "After", "AtCall", "AfterCall", "ArmAfter":
		if analysis.IsMethod(fn, "livelock/internal/sim", "Engine", fn.Name()) {
			return "schedules engine events, making event order depend on map order"
		}
	case "Post":
		if analysis.IsMethod(fn, "livelock/internal/cpu", "Task", "Post") {
			return "posts CPU work, making dispatch order depend on map order"
		}
	}
	return ""
}

// sortedLater reports whether the enclosing function body contains a
// sort.* or slices.Sort* call that mentions obj.
func sortedLater(pass *analysis.Pass, obj types.Object, enclosing *ast.BlockStmt) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
