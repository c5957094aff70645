// Package lockguard enforces the SMP lock discipline statically: shared
// state annotated //lkvet:guards <lock> may only be touched from a
// context that provably holds that lock, and nested critical sections
// must acquire locks in one global order.
//
// The discipline the pass checks is the one the cpu package implements.
// A critical section is the commit fn of Task.PostLocked(lock, ...), or
// of Task.PostLockedTail(lock, ...), whose fn runs as the locked tail
// of a split cost: it runs atomically at unlock, logically under the
// lock. A context therefore "holds" a lock when it is
//
//   - the fn literal passed directly to Task.PostLocked or
//     Task.PostLockedTail — it holds the lock named by the first
//     argument's final identifier;
//   - a function declared //lkvet:requires <lock> — its callers are
//     checked instead (the annotation is the interprocedural joint);
//   - a fn literal carrying its own //lkvet:requires comment on the
//     line above or the same line (for closures installed as callbacks
//     that the dispatcher runs under a lock);
//   - a branch that runs only while the lock is nil: the body of
//     `if l == nil && ...`, or the else of `if l != nil || ...`, where l
//     is a *cpu.FairLock. A kernel creates its locks only when it runs
//     more than one CPU, so a nil lock means nothing shares the state it
//     would guard — the same reading PostLockedTail gives a nil lock,
//     whose fn then runs as one plain item.
//
// The virtual lock "boot" names a fully-serialized context: constructors,
// harness entry points that own the engine, and observers that run
// between engine steps. Holding boot satisfies every guard; a
// //lkvet:requires boot function may in turn only be called from boot
// contexts. Contexts never inherit held locks lexically: a literal
// passed to Post/PostCenter runs later, unlocked, and a stashed closure
// runs wherever its caller pleases, so each gets the empty held set
// unless annotated.
//
// The pass also builds a static lock-order graph: PostLocked(B) or
// PostLockedTail(B) issued from a context holding A — directly, or
// anywhere in the same-package synchronous call tree (depth-bounded) —
// is a nested acquisition A -> B. Any edge that closes a cycle is reported: the cycle is a
// deadlock some schedule can reach even if no committed seed does. The
// runtime half (cpu.Lockdep) derives the same graph from executions, so
// the two layers cross-check.
//
// Limits, by construction: annotations are package-local, so a
// cross-package call into a //lkvet:requires function is not checked at
// the call site (the kernel guards its entry points instead), and a
// method value passed as a callback is not a call expression and
// escapes the requires check. Deliberately lock-free reads (racy
// heuristics re-validated under the lock) carry //lkvet:allow lockguard
// excuses.
package lockguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"livelock/internal/analysis"
)

const (
	cpuPath = "livelock/internal/cpu"

	guardsPrefix   = "lkvet:guards"
	requiresPrefix = "lkvet:requires"

	// Boot is the virtual lock naming fully-serialized contexts.
	Boot = "boot"

	// maxDepth bounds the synchronous callee walk that attributes
	// nested PostLocked calls to the holding context; matches the
	// uncharged pass's bound for the same trampoline idiom.
	maxDepth = 4
)

// Analyzer is the lockguard pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc: "enforce the SMP lock discipline: //lkvet:guards state is only touched " +
		"under its lock, //lkvet:requires contracts hold at every call site, and " +
		"nested PostLocked acquisitions never invert the global lock order",
	Run: run,
}

// ann is one parsed //lkvet:guards or //lkvet:requires comment, keyed
// by file:line so declarations on the next (or same) line can claim it.
type ann struct {
	pos   token.Position
	locks []string
	used  bool
}

type lineKey struct {
	file string
	line int
}

type edge struct {
	from, to string
	pos      token.Pos
}

type checker struct {
	pass     *analysis.Pass
	guards   map[types.Object]string // guarded field/var -> lock name
	what     map[types.Object]token.Position
	requires map[*types.Func][]string
	litHeld  map[*ast.FuncLit][]string // dispatch fn args: PostLocked/PostLockedTail lock, or nil for Post/PostCenter
	decls    map[*types.Func]*ast.FuncDecl

	guardsAt   map[lineKey]*ann
	requiresAt map[lineKey]*ann

	edges    map[string]map[string]bool
	edgeList []edge
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:       pass,
		guards:     map[types.Object]string{},
		what:       map[types.Object]token.Position{},
		requires:   map[*types.Func][]string{},
		litHeld:    map[*ast.FuncLit][]string{},
		decls:      map[*types.Func]*ast.FuncDecl{},
		guardsAt:   map[lineKey]*ann{},
		requiresAt: map[lineKey]*ann{},
		edges:      map[string]map[string]bool{},
	}
	c.collectAnnotations()
	if len(c.guardsAt) == 0 && len(c.requiresAt) == 0 {
		return nil // unannotated package: nothing to enforce
	}
	c.bindAnnotations()
	c.indexDispatchLiterals()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var held []string
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				held = c.requires[fn]
			}
			c.walkContext(fd.Body, held)
		}
	}
	c.reportUnbound()
	c.checkOrder()
	return nil
}

// collectAnnotations parses every guards/requires comment into the
// per-line maps, reporting malformed ones immediately.
func (c *checker) collectAnnotations() {
	for _, f := range c.pass.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				text := strings.TrimPrefix(cm.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				var prefix string
				var dst map[lineKey]*ann
				switch {
				case strings.HasPrefix(text, guardsPrefix):
					prefix, dst = guardsPrefix, c.guardsAt
				case strings.HasPrefix(text, requiresPrefix):
					prefix, dst = requiresPrefix, c.requiresAt
				default:
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
				// Fixture files pair annotations with analysistest
				// expectations on the same line.
				if i := strings.Index(rest, "// want"); i >= 0 {
					rest = strings.TrimSpace(rest[:i])
				}
				pos := c.pass.Fset.Position(cm.Pos())
				locks := strings.Fields(rest)
				switch {
				case len(locks) == 0:
					c.pass.Reportf(cm.Pos(), "malformed //%s: at least one lock name is required", prefix)
				case prefix == guardsPrefix && len(locks) > 1:
					c.pass.Reportf(cm.Pos(), "malformed //%s: exactly one lock guards a declaration", prefix)
				default:
					dst[lineKey{pos.Filename, pos.Line}] = &ann{pos: pos, locks: locks}
				}
			}
		}
	}
}

// claim returns the annotation attached to a declaration at pos: on the
// same line (trailing comment) or the line directly above (its own
// comment line, typically the last line of a doc comment).
func (c *checker) claim(m map[lineKey]*ann, pos token.Pos) *ann {
	p := c.pass.Fset.Position(pos)
	for _, line := range [2]int{p.Line, p.Line - 1} {
		if a := m[lineKey{p.Filename, line}]; a != nil {
			a.used = true
			return a
		}
	}
	return nil
}

// bindAnnotations attaches guards annotations to field and variable
// objects and requires annotations to declared functions, and indexes
// every function declaration for the callee walk.
func (c *checker) bindAnnotations() {
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					a := c.claim(c.guardsAt, field.Pos())
					if a == nil {
						continue
					}
					for _, name := range field.Names {
						if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
							c.guards[obj] = a.locks[0]
							c.what[obj] = a.pos
						}
					}
				}
			case *ast.ValueSpec:
				a := c.claim(c.guardsAt, n.Pos())
				if a == nil {
					return true
				}
				for _, name := range n.Names {
					if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
						c.guards[obj] = a.locks[0]
						c.what[obj] = a.pos
					}
				}
			case *ast.FuncDecl:
				if fn, ok := c.pass.TypesInfo.Defs[n.Name].(*types.Func); ok {
					if n.Body != nil {
						c.decls[fn] = n
					}
					if a := c.claim(c.requiresAt, n.Pos()); a != nil {
						c.requires[fn] = a.locks
					}
				}
				return true
			}
			return true
		})
	}
}

// indexDispatchLiterals records the held set of every fn literal passed
// directly to a Task dispatch call: a PostLocked or PostLockedTail fn
// holds the lock named by the first argument; Post/PostCenter fns run
// later, unlocked.
func (c *checker) indexDispatchLiterals() {
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
			var held []string
			lock, fnArg := lockedPost(fn, call)
			switch {
			case lock != nil:
				if name := lockName(lock); name != "" {
					held = []string{name}
				}
			case analysis.IsMethod(fn, cpuPath, "Task", "Post") && len(call.Args) == 2:
				fnArg = call.Args[1]
			case analysis.IsMethod(fn, cpuPath, "Task", "PostCenter") && len(call.Args) == 3:
				fnArg = call.Args[2]
			default:
				return true
			}
			if lit, ok := ast.Unparen(fnArg).(*ast.FuncLit); ok {
				c.litHeld[lit] = held // nil for the deferred variants
			}
			return true
		})
	}
}

// lockedPost returns the lock and fn arguments of a critical-section
// dispatch — Task.PostLocked(l, cost, center, fn) or
// Task.PostLockedTail(l, cost, tail, center, fn) — or nils for any
// other call.
func lockedPost(fn *types.Func, call *ast.CallExpr) (lock, fnArg ast.Expr) {
	switch {
	case analysis.IsMethod(fn, cpuPath, "Task", "PostLocked") && len(call.Args) == 4:
		return call.Args[0], call.Args[3]
	case analysis.IsMethod(fn, cpuPath, "Task", "PostLockedTail") && len(call.Args) == 5:
		return call.Args[0], call.Args[4]
	}
	return nil, nil
}

// lockName is the static identity of a lock expression: its final
// identifier (r.netLock and u.r.netLock are the same lock).
func lockName(expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// holds reports whether the held set satisfies a demand for lock: the
// lock itself, or boot (full serialization satisfies any guard; only
// boot satisfies a demand for boot).
func holds(held []string, lock string) bool {
	for _, h := range held {
		if h == lock || h == Boot {
			return true
		}
	}
	return false
}

// nilLocks returns the locks an if condition proves nil: with op EQL,
// those tested `l == nil` in a chain of && (nil when the body runs);
// with op NEQ, those tested `l != nil` in a chain of || (nil when the
// else runs). Only *cpu.FairLock operands count.
func (c *checker) nilLocks(cond ast.Expr, op token.Token) []string {
	e, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	chain := token.LAND
	if op == token.NEQ {
		chain = token.LOR
	}
	switch {
	case e.Op == chain:
		return append(c.nilLocks(e.X, op), c.nilLocks(e.Y, op)...)
	case e.Op == op && c.isNil(e.Y) && c.isFairLock(e.X):
		if name := lockName(e.X); name != "" {
			return []string{name}
		}
	}
	return nil
}

func (c *checker) isNil(e ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

func (c *checker) isFairLock(e ast.Expr) bool {
	ptr, ok := c.pass.TypesInfo.TypeOf(e).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "FairLock" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == cpuPath
}

func heldString(held []string) string {
	if len(held) == 0 {
		return "none"
	}
	return strings.Join(held, ", ")
}

// walkContext checks every access and call in node against the held
// set, switching context at fn literals: a literal's held set comes
// from its dispatch site or its own annotation, never from the
// enclosing scope.
func (c *checker) walkContext(node ast.Node, held []string) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			litHeld := c.litHeld[n]
			if a := c.claim(c.requiresAt, n.Pos()); a != nil {
				litHeld = append(litHeld, a.locks...)
			}
			c.walkContext(n.Body, litHeld)
			return false
		case *ast.IfStmt:
			if n.Init != nil {
				c.walkContext(n.Init, held)
			}
			c.walkContext(n.Cond, held)
			c.walkContext(n.Body, append(c.nilLocks(n.Cond, token.EQL), held...))
			if n.Else != nil {
				c.walkContext(n.Else, append(c.nilLocks(n.Cond, token.NEQ), held...))
			}
			return false
		case *ast.Ident:
			if obj := c.pass.TypesInfo.Uses[n]; obj != nil {
				if lock, ok := c.guards[obj]; ok && !holds(held, lock) {
					c.pass.Reportf(n.Pos(),
						"guarded state %s requires %q (held: %s): touch it inside Task.PostLocked(%s, ...) or a //lkvet:requires %s context",
						obj.Name(), lock, heldString(held), lock, lock)
				}
			}
		case *ast.CallExpr:
			c.checkCall(n, held)
		}
		return true
	})
}

// checkCall enforces requires contracts at call sites and feeds nested
// PostLocked acquisitions into the lock-order graph.
func (c *checker) checkCall(call *ast.CallExpr, held []string) {
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if lock, _ := lockedPost(fn, call); lock != nil {
		if to := lockName(lock); to != "" {
			for _, from := range held {
				if from != Boot && from != to {
					c.addEdge(from, to, call.Pos())
				}
			}
		}
		return
	}
	for _, req := range c.requires[fn] {
		if !holds(held, req) {
			c.pass.Reportf(call.Pos(),
				"call to %s requires %q (held: %s)", fn.Name(), req, heldString(held))
		}
	}
	// A synchronous same-package callee may itself post nested critical
	// sections; attribute those acquisitions to this held context.
	if len(held) > 0 && !(len(held) == 1 && held[0] == Boot) {
		c.walkForPosts(fn, held, call.Pos(), 0, map[*types.Func]bool{})
	}
}

// walkForPosts descends the same-package synchronous call tree of fn
// looking for PostLocked/PostLockedTail calls, recording them as order edges from the
// caller's held locks. Fn-literal subtrees are skipped: literals there
// are dispatch arguments or stashed callbacks, both deferred.
func (c *checker) walkForPosts(fn *types.Func, held []string, at token.Pos, depth int, visited map[*types.Func]bool) {
	if depth >= maxDepth || visited[fn] {
		return
	}
	visited[fn] = true
	decl := c.decls[fn]
	if decl == nil {
		return
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.CalleeFunc(c.pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		if lock, _ := lockedPost(callee, call); lock != nil {
			if to := lockName(lock); to != "" {
				for _, from := range held {
					if from != Boot && from != to {
						c.addEdge(from, to, at)
					}
				}
			}
			return true
		}
		if callee.Pkg() != nil && callee.Pkg().Path() == c.pass.Pkg.ImportPath {
			c.walkForPosts(callee, held, at, depth+1, visited)
		}
		return true
	})
}

func (c *checker) addEdge(from, to string, pos token.Pos) {
	if c.edges[from][to] {
		return
	}
	m := c.edges[from]
	if m == nil {
		m = map[string]bool{}
		c.edges[from] = m
	}
	m[to] = true
	c.edgeList = append(c.edgeList, edge{from, to, pos})
}

// checkOrder replays the collected edges in source order against an
// incrementally-built graph, reporting every edge that closes a cycle:
// that acquisition order contradicts one already established, so some
// schedule deadlocks.
func (c *checker) checkOrder() {
	sort.Slice(c.edgeList, func(i, j int) bool {
		a, b := c.pass.Fset.Position(c.edgeList[i].pos), c.pass.Fset.Position(c.edgeList[j].pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	graph := map[string]map[string]bool{}
	for _, e := range c.edgeList {
		if path := findPath(graph, e.to, e.from); path != nil {
			c.pass.Reportf(e.pos,
				"lock-order cycle: acquiring %q while holding %q inverts the established order %s",
				e.to, e.from, strings.Join(append([]string{e.from}, path...), " -> "))
			continue // do not insert the inverting edge; report each inversion once
		}
		m := graph[e.from]
		if m == nil {
			m = map[string]bool{}
			graph[e.from] = m
		}
		m[e.to] = true
	}
}

// findPath returns the node sequence from `from` to `to` (inclusive),
// or nil. Neighbor order is sorted for deterministic messages.
func findPath(graph map[string]map[string]bool, from, to string) []string {
	if from == to {
		return []string{from}
	}
	var next []string
	for n := range graph[from] {
		next = append(next, n)
	}
	sort.Strings(next)
	for _, n := range next {
		if path := findPath(graph, n, to); path != nil {
			return append([]string{from}, path...)
		}
	}
	return nil
}

// reportUnbound flags annotations that attached to nothing: a typo'd
// placement silently checking nothing is worse than no annotation.
func (c *checker) reportUnbound() {
	var loose []*ann
	for _, a := range c.guardsAt {
		if !a.used {
			loose = append(loose, a)
		}
	}
	for _, a := range c.requiresAt {
		if !a.used {
			loose = append(loose, a)
		}
	}
	sort.Slice(loose, func(i, j int) bool {
		if loose[i].pos.Filename != loose[j].pos.Filename {
			return loose[i].pos.Filename < loose[j].pos.Filename
		}
		return loose[i].pos.Line < loose[j].pos.Line
	})
	for _, a := range loose {
		c.pass.Reportf(c.posOf(a),
			"lock annotation attaches to nothing: place it on the line of (or directly above) a field, variable, or func declaration")
	}
}

// posOf converts an annotation's stored Position back to a Pos inside
// the pass's fileset for reporting.
func (c *checker) posOf(a *ann) token.Pos {
	for _, f := range c.pass.Files {
		tf := c.pass.Fset.File(f.Pos())
		if tf != nil && tf.Name() == a.pos.Filename {
			return tf.LineStart(a.pos.Line)
		}
	}
	return token.NoPos
}
