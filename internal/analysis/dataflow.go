package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the interprocedural dataflow layer: a per-function value
// graph (parameters, results, locals, with field and index edges) plus
// bottom-up function summaries propagated to a fixpoint over the
// callgraph. The summaries power the taintsize, ctxpoll and goroleak
// analyzers. taintsize's taint-source and sanitizer heuristics
// (taintSourcePattern, sanitizerCallPattern) are the summary sources too,
// so its zero-hop and cross-call findings agree on what a "bitstream
// read" and a "bounds check" are.

// Program is the shared whole-module view built once per Run and handed
// to every analyzer through Pass.Prog: the callgraph, the decode-contract
// reachability, and one funcSummary per declared function.
type Program struct {
	fset  *token.FileSet
	graph *callGraph
	// funcs is every callgraph node in stable source order.
	funcs []*types.Func
	sums  map[*types.Func]*funcSummary
	// decodeReach/decodeParent are the nopanic/errwrap reachability from
	// the decode entry points, shared so the graph is walked once.
	decodeReach  map[*types.Func]bool
	decodeParent map[*types.Func]*types.Func
	// modRoot is the first import-path element of the loaded packages
	// (e.g. "cliz"); callees under it are module-local and summarized.
	modRoot string
}

// funcSummary is the bottom-up summary of one function: the facts a
// caller needs without looking at the body.
type funcSummary struct {
	// polls reports that the body reaches a cancellation poll — an
	// Interrupt/interrupted/poll* call or ctx.Err()/ctx.Done() — either
	// directly or through a summarized callee. Capability, not wiring: a
	// nil Interrupt hook still counts (runtime tests pin the wiring).
	polls bool
	// blocking reports the body may block the calling goroutine: channel
	// operations, select, a *.Wait() / time.Sleep call, or a transitively
	// blocking module-local callee. Goroutine bodies and non-invoked
	// function literals are excluded.
	blocking bool
	// taintedResults[i] reports result i is an integer derived from a
	// bitstream read (taintSourcePattern) with no intervening
	// bounds check.
	taintedResults []bool
	// resultParams[i] is the bitmask of parameters whose value flows to
	// result i without an intervening bounds check. A callee that clamps
	// its input before returning it (e.g. zfp's precision()) has an
	// empty mask, which sanitizes the flow at every call site.
	resultParams []uint64
	// paramSinks maps a parameter index to a description of the
	// unchecked allocation-or-loop sink it reaches (possibly through
	// further summarized calls).
	paramSinks map[int]string
	// blockCallees are the module-local callees invoked outside go
	// statements and function literals, for blocking propagation.
	blockCallees []*types.Func
}

// Program returns the shared interprocedural state, building it on first
// use (tests may construct a Pass without one).
func (p *Pass) Program() *Program {
	if p.Prog == nil {
		p.Prog = buildProgram(p.Fset, p.Pkgs)
	}
	return p.Prog
}

// moduleRoot returns the first import-path element of the loaded set.
func moduleRoot(pkgs []*Package) string {
	for _, p := range pkgs {
		if i := strings.IndexByte(p.Path, '/'); i > 0 {
			return p.Path[:i]
		}
		return p.Path
	}
	return ""
}

// isModuleFunc reports whether f is declared inside the loaded module
// (including testdata fixture packages, whose synthetic import paths sit
// under the module root).
func (prog *Program) isModuleFunc(f *types.Func) bool {
	pkg := f.Pkg()
	if pkg == nil || prog.modRoot == "" {
		return false
	}
	return pkg.Path() == prog.modRoot || strings.HasPrefix(pkg.Path(), prog.modRoot+"/")
}

// buildProgram constructs the callgraph, seeds each function's local
// facts, and iterates the summary transfer to a fixpoint (the module's
// call depth is shallow; the iteration cap is a recursion backstop).
func buildProgram(fset *token.FileSet, pkgs []*Package) *Program {
	prog := &Program{
		fset:    fset,
		graph:   buildCallGraph(pkgs),
		sums:    make(map[*types.Func]*funcSummary),
		modRoot: moduleRoot(pkgs),
	}
	for f := range prog.graph.nodes {
		prog.funcs = append(prog.funcs, f)
	}
	sort.Slice(prog.funcs, func(i, j int) bool {
		return prog.graph.nodes[prog.funcs[i]].decl.Pos() < prog.graph.nodes[prog.funcs[j]].decl.Pos()
	})
	for _, f := range prog.funcs {
		node := prog.graph.nodes[f]
		s := &funcSummary{paramSinks: map[int]string{}}
		s.polls = hasLocalPoll(node)
		s.blocking, s.blockCallees = localBlocking(node)
		prog.sums[f] = s
	}
	// Bottom-up fixpoint: propagate polls/blocking over call edges and
	// recompute the taint summaries (whose transfer function consults
	// callee summaries) until nothing changes.
	for iter := 0; iter < 12; iter++ {
		changed := false
		for _, f := range prog.funcs {
			node, s := prog.graph.nodes[f], prog.sums[f]
			if !s.polls {
				for callee := range node.calls {
					if cs := prog.sums[callee]; cs != nil && cs.polls {
						s.polls = true
						changed = true
						break
					}
				}
			}
			if !s.blocking {
				for _, callee := range s.blockCallees {
					if cs := prog.sums[callee]; cs != nil && cs.blocking {
						s.blocking = true
						changed = true
						break
					}
				}
			}
			fl := newFuncFlow(node.pkg, node.decl, prog)
			tr, rp, ps := fl.summaryFacts()
			if !boolsEqual(tr, s.taintedResults) || !masksEqual(rp, s.resultParams) || !sinksEqual(ps, s.paramSinks) {
				s.taintedResults, s.resultParams, s.paramSinks = tr, rp, ps
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	entries := decodeEntryPoints(pkgs)
	prog.decodeReach, prog.decodeParent = prog.graph.reachableFrom(entries)
	return prog
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func masksEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sinksEqual(a, b map[int]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Poll and blocking detection (ctxpoll / goroleak summary sources).
// ---------------------------------------------------------------------

// isPollCall reports whether call is a cancellation poll: a callee whose
// name says interrupt/poll (Interrupt hooks, interrupted helpers,
// pollEvery closures), or Err()/Done() on a context.Context.
func isPollCall(pkg *Package, call *ast.CallExpr) bool {
	name := calleeName(call)
	if name == "" {
		return false
	}
	l := strings.ToLower(name)
	if strings.Contains(l, "interrupt") || strings.HasPrefix(l, "poll") {
		return true
	}
	if name == "Err" || name == "Done" {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if t := pkg.Info.TypeOf(sel.X); t != nil && t.String() == "context.Context" {
				return true
			}
		}
	}
	return false
}

// hasLocalPoll reports whether the function body contains a direct poll.
func hasLocalPoll(node *funcNode) bool {
	found := false
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isPollCall(node.pkg, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// localBlocking scans the body outside go statements and function
// literals for operations that can block the calling goroutine, and
// collects the module-local callees on those paths for propagation.
func localBlocking(node *funcNode) (bool, []*types.Func) {
	blocking := false
	var callees []*types.Func
	seen := map[*types.Func]bool{}
	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt, *ast.FuncLit:
				return false // the launched/deferred work blocks someone else
			case *ast.SendStmt, *ast.SelectStmt:
				blocking = true
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					blocking = true
				}
			case *ast.RangeStmt:
				if t := node.pkg.Info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						blocking = true
					}
				}
			case *ast.CallExpr:
				switch calleeName(n) {
				case "Wait", "Sleep":
					blocking = true
				}
				if f := resolveCallee(node.pkg, n); f != nil && !seen[f] {
					seen[f] = true
					callees = append(callees, f)
				}
			}
			return true
		})
	}
	walk(node.decl.Body)
	return blocking, callees
}

// resolveCallee resolves a call to its static *types.Func callee (the
// same resolution the callgraph uses), or nil.
func resolveCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	fn := ast.Unparen(call.Fun)
	switch idx := fn.(type) {
	case *ast.IndexExpr:
		fn = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fn = ast.Unparen(idx.X)
	}
	switch fun := fn.(type) {
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return origin(f)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return origin(f)
			}
		} else if f, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return origin(f)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Per-function value graph and taint flow (taintsize summary source).
// ---------------------------------------------------------------------

// ref names one value in the function's value graph: a root object (a
// parameter, local, or named result) plus a field/index path, so h.count
// and h are distinct nodes with a prefix edge between them.
type ref struct {
	obj  types.Object
	path string
}

// taintVal is the dataflow fact attached to a ref.
type taintVal struct {
	// direct says the value derives from a bitstream read.
	direct bool
	// viaCall says the direct taint crossed a function boundary (it came
	// out of a summarized callee rather than a local source call).
	viaCall bool
	// srcDesc names the originating read for diagnostics.
	srcDesc string
	// pos is where the taint was (first) introduced in this function.
	pos token.Pos
	// params is the bitmask of this function's parameters that flow into
	// the ref (for paramSinks summaries).
	params uint64
}

func (t taintVal) empty() bool { return !t.direct && t.params == 0 }

func mergeTaint(a, b taintVal) taintVal {
	out := a
	if b.direct && !a.direct {
		out.direct, out.viaCall, out.srcDesc, out.pos = true, b.viaCall, b.srcDesc, b.pos
	}
	out.params |= b.params
	return out
}

// flowEdge is one assignment edge in the value graph: dst receives the
// merged taint of srcs (and of a direct source expression, when the RHS
// contains a bitstream read) at pos.
type flowEdge struct {
	dst  ref
	srcs []ref
	src  *taintVal // direct source in the RHS, if any
	pos  token.Pos
}

// sinkKind classifies a taint sink.
type sinkKind int

const (
	sinkMake sinkKind = iota // make() size/capacity argument
	sinkLoop                 // loop bound
	sinkCall                 // argument to a callee with a paramSinks summary
)

type sinkSite struct {
	kind sinkKind
	pos  token.Pos // report position
	// cutoff is the position sanitization must precede (the loop
	// statement itself for loop bounds, so a loop's own condition does
	// not sanitize its bound).
	cutoff token.Pos
	expr   ast.Expr
	// callee/argIdx/desc describe sinkCall sites.
	callee *types.Func
	argIdx int
	desc   string
}

// funcFlow runs the per-function value-graph analysis. It is built twice
// per function per fixpoint round at most: once for summaries, once by
// the taintsize analyzer for reporting.
type funcFlow struct {
	pkg       *Package
	fd        *ast.FuncDecl
	prog      *Program
	params    []types.Object
	results   []types.Object // named results, aligned with the signature when named
	edges     []flowEdge
	taint     map[ref]taintVal
	sanitized map[ref]token.Pos
	sinks     []sinkSite
	returns   []*ast.ReturnStmt
}

func newFuncFlow(pkg *Package, fd *ast.FuncDecl, prog *Program) *funcFlow {
	fl := &funcFlow{
		pkg:       pkg,
		fd:        fd,
		prog:      prog,
		taint:     make(map[ref]taintVal),
		sanitized: make(map[ref]token.Pos),
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					fl.params = append(fl.params, obj)
				}
			}
		}
	}
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					fl.results = append(fl.results, obj)
				}
			}
		}
	}
	for i, obj := range fl.params {
		if i >= 64 {
			break
		}
		fl.taint[ref{obj: obj}] = taintVal{params: 1 << uint(i), pos: obj.Pos()}
	}
	fl.collect()
	fl.propagate()
	return fl
}

// resolveRef maps an expression to a value-graph node: an identifier, a
// field selection chain, or an index expression rooted at one.
func (fl *funcFlow) resolveRef(e ast.Expr) (ref, bool) {
	return resolveExprRef(fl.pkg, e)
}

func resolveExprRef(pkg *Package, e ast.Expr) (ref, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pkg.Info.ObjectOf(e)
		if obj == nil {
			return ref{}, false
		}
		return ref{obj: obj}, true
	case *ast.SelectorExpr:
		// Only field selections form value edges; method values do not.
		if _, ok := pkg.Info.Selections[e]; !ok {
			// Package-qualified name: resolve the selected object.
			if obj := pkg.Info.ObjectOf(e.Sel); obj != nil {
				return ref{obj: obj}, true
			}
			return ref{}, false
		}
		base, ok := resolveExprRef(pkg, e.X)
		if !ok {
			return ref{}, false
		}
		return ref{obj: base.obj, path: base.path + "." + e.Sel.Name}, true
	case *ast.IndexExpr:
		base, ok := resolveExprRef(pkg, e.X)
		if !ok {
			return ref{}, false
		}
		return ref{obj: base.obj, path: base.path + "[]"}, true
	case *ast.StarExpr:
		return resolveExprRef(pkg, e.X)
	}
	return ref{}, false
}

// exprRefs collects every resolvable ref mentioned in e (skipping nested
// function literals, which get their own facts via the callgraph). Calls
// to module-local functions with a summary are routed through that
// summary: only arguments the callee lets flow to a result contribute
// refs, so a callee that clamps its input (zfp's precision()) sanitizes
// the flow at every call site. Unsummarized and external calls stay
// conservative — every argument flows.
func (fl *funcFlow) exprRefs(e ast.Expr) []ref {
	var out []ref
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if f := resolveCallee(fl.pkg, call); f != nil && fl.prog.isModuleFunc(f) {
				if s := fl.prog.sums[f]; s != nil {
					var mask uint64
					for _, m := range s.resultParams {
						mask |= m
					}
					for j, arg := range call.Args {
						if j < 64 && mask&(1<<uint(j)) != 0 {
							out = append(out, fl.exprRefs(arg)...)
						}
					}
					// The receiver (or selector base) still flows: a
					// method value derived from a tainted struct stays
					// tainted.
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						out = append(out, fl.exprRefs(sel.X)...)
					}
					return false
				}
			}
		}
		if ex, ok := n.(ast.Expr); ok {
			if r, ok := fl.resolveRef(ex); ok {
				out = append(out, r)
				return false // the ref subsumes its sub-expressions
			}
		}
		return true
	})
	return out
}

// isIntType reports whether t is an integer type (only integers can
// carry a bitstream-count taint).
func isIntType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// directSourceIn looks for a bitstream read inside e: a call matching
// taintSourcePattern, or a call to a module-local callee
// whose summary marks its (single) result tainted.
func (fl *funcFlow) directSourceIn(e ast.Expr) *taintVal {
	var out *taintVal
	ast.Inspect(e, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := calleeName(call); name != "" && taintSourcePattern.MatchString(name) {
			out = &taintVal{direct: true, srcDesc: name, pos: call.Pos()}
			return false
		}
		if f := resolveCallee(fl.pkg, call); f != nil && fl.prog.isModuleFunc(f) {
			if s := fl.prog.sums[f]; s != nil {
				for _, tainted := range s.taintedResults {
					if tainted {
						out = &taintVal{direct: true, viaCall: true, srcDesc: f.Name() + "()", pos: call.Pos()}
						return false
					}
				}
			}
		}
		return true
	})
	return out
}

// collect walks the body once, recording value-graph edges, sanitizing
// positions, and sink sites.
func (fl *funcFlow) collect() {
	ast.Inspect(fl.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			fl.collectAssign(n)
		case *ast.ValueSpec:
			if len(n.Values) == 1 && len(n.Names) > 1 {
				fl.addMultiEdge(nil, n.Values[0], n.Pos(), exprIdents(n.Names))
			} else {
				for i, name := range n.Names {
					if i < len(n.Values) {
						fl.addEdge(name, n.Values[i], n.Pos())
					}
				}
			}
		case *ast.RangeStmt:
			// Element values inherit the container's taint.
			if n.Value != nil {
				fl.addEdge(n.Value, n.X, n.Pos())
			}
			// Go 1.22 range-over-int: the range expression is the bound.
			if t := fl.pkg.Info.TypeOf(n.X); isIntType(t) {
				fl.sinks = append(fl.sinks, sinkSite{kind: sinkLoop, pos: n.X.Pos(), cutoff: n.Pos(), expr: n.X})
			}
		case *ast.IfStmt:
			if n.Cond != nil {
				fl.markComparisonRefs(n.Cond)
			}
		case *ast.ForStmt:
			if n.Cond != nil {
				fl.markComparisonRefs(n.Cond)
				fl.sinks = append(fl.sinks, sinkSite{kind: sinkLoop, pos: n.Cond.Pos(), cutoff: n.Pos(), expr: n.Cond})
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				fl.sanitizeExpr(n.Tag, n.Tag.Pos())
			}
		case *ast.CallExpr:
			fl.collectCall(n)
		case *ast.ReturnStmt:
			fl.returns = append(fl.returns, n)
		}
		return true
	})
}

func exprIdents(names []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(names))
	for i, n := range names {
		out[i] = n
	}
	return out
}

func (fl *funcFlow) collectAssign(n *ast.AssignStmt) {
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		fl.addMultiEdge(n.Lhs, n.Rhs[0], n.Pos(), nil)
		return
	}
	for i, lhs := range n.Lhs {
		if i < len(n.Rhs) {
			fl.addEdge(lhs, n.Rhs[i], n.Pos())
		}
	}
}

// addEdge records dst <- rhs for a single-value assignment.
func (fl *funcFlow) addEdge(dst, rhsExpr ast.Expr, pos token.Pos) {
	dref, ok := fl.resolveRef(dst)
	if !ok || dref.obj.Name() == "_" {
		return
	}
	var src *taintVal
	if isIntType(fl.pkg.Info.TypeOf(dst)) {
		src = fl.directSourceIn(rhsExpr)
	}
	fl.edges = append(fl.edges, flowEdge{dst: dref, srcs: fl.exprRefs(rhsExpr), src: src, pos: pos})
}

// addMultiEdge records a multi-value call assignment: tainted callee
// results (by summary position, or every integer result for pattern
// sources) taint the corresponding destinations.
func (fl *funcFlow) addMultiEdge(lhs []ast.Expr, rhsExpr ast.Expr, pos token.Pos, altLhs []ast.Expr) {
	if altLhs != nil {
		lhs = altLhs
	}
	call, ok := ast.Unparen(rhsExpr).(*ast.CallExpr)
	if !ok {
		return
	}
	var perResult []bool
	var src taintVal
	if name := calleeName(call); name != "" && taintSourcePattern.MatchString(name) {
		src = taintVal{direct: true, srcDesc: name, pos: call.Pos()}
	} else if f := resolveCallee(fl.pkg, call); f != nil && fl.prog.isModuleFunc(f) {
		if s := fl.prog.sums[f]; s != nil && len(s.taintedResults) > 0 {
			perResult = s.taintedResults
			src = taintVal{direct: true, viaCall: true, srcDesc: f.Name() + "()", pos: call.Pos()}
		}
	}
	if !src.direct {
		return
	}
	for i, dst := range lhs {
		if perResult != nil && (i >= len(perResult) || !perResult[i]) {
			continue
		}
		dref, ok := fl.resolveRef(dst)
		if !ok || dref.obj.Name() == "_" || !isIntType(fl.pkg.Info.TypeOf(dst)) {
			continue
		}
		s := src
		fl.edges = append(fl.edges, flowEdge{dst: dref, src: &s, pos: pos})
	}
}

// markComparisonRefs records every ref participating in a relational
// comparison as sanitized from the comparison's position on.
func (fl *funcFlow) markComparisonRefs(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			fl.sanitizeExpr(be.X, be.Pos())
			fl.sanitizeExpr(be.Y, be.Pos())
		}
		return true
	})
}

func (fl *funcFlow) sanitizeExpr(e ast.Expr, pos token.Pos) {
	for _, r := range fl.exprRefs(e) {
		if prev, ok := fl.sanitized[r]; !ok || pos < prev {
			fl.sanitized[r] = pos
		}
	}
}

func (fl *funcFlow) collectCall(call *ast.CallExpr) {
	name := calleeName(call)
	if name != "" && sanitizerCallPattern.MatchString(name) {
		for _, arg := range call.Args {
			fl.sanitizeExpr(arg, call.Pos())
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "make" {
		for _, arg := range call.Args[1:] {
			fl.sinks = append(fl.sinks, sinkSite{kind: sinkMake, pos: call.Pos(), cutoff: call.Pos(), expr: arg})
		}
		return
	}
	callee := resolveCallee(fl.pkg, call)
	if callee == nil || !fl.prog.isModuleFunc(callee) {
		return
	}
	s := fl.prog.sums[callee]
	if s == nil || len(s.paramSinks) == 0 {
		return
	}
	for argIdx, desc := range s.paramSinks {
		if argIdx >= len(call.Args) {
			continue // variadic spread or mismatched call; skip
		}
		fl.sinks = append(fl.sinks, sinkSite{
			kind: sinkCall, pos: call.Pos(), cutoff: call.Pos(),
			expr: call.Args[argIdx], callee: callee, argIdx: argIdx, desc: desc,
		})
	}
}

// propagate iterates the value-graph edges to a fixpoint, skipping
// propagation from refs already sanitized before the edge's position.
func (fl *funcFlow) propagate() {
	for round := 0; round < 8; round++ {
		changed := false
		for _, e := range fl.edges {
			nv := fl.taint[e.dst]
			if e.src != nil {
				nv = mergeTaint(nv, *e.src)
			}
			for _, s := range e.srcs {
				if s == e.dst {
					continue
				}
				tv, ok := fl.lookupTaint(s)
				if !ok || fl.sanitizedBefore(s, e.pos) {
					continue
				}
				tv.pos = e.pos
				nv = mergeTaint(nv, tv)
			}
			if nv != fl.taint[e.dst] {
				fl.taint[e.dst] = nv
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// lookupTaint finds the taint of r, falling back to any tainted prefix
// (a tainted struct taints its fields and elements).
func (fl *funcFlow) lookupTaint(r ref) (taintVal, bool) {
	if tv, ok := fl.taint[r]; ok && !tv.empty() {
		return tv, true
	}
	path := r.path
	for path != "" {
		cut := strings.LastIndexAny(path, ".[")
		if cut < 0 {
			break
		}
		path = path[:cut]
		if strings.HasSuffix(path, "]") || strings.HasSuffix(path, "[") {
			path = strings.TrimRight(path, "[]")
		}
		if tv, ok := fl.taint[ref{obj: r.obj, path: path}]; ok && !tv.empty() {
			return tv, true
		}
	}
	if r.path != "" {
		if tv, ok := fl.taint[ref{obj: r.obj}]; ok && !tv.empty() {
			return tv, true
		}
	}
	return taintVal{}, false
}

// sanitizedBefore reports whether r (or a prefix of it) was bounds-
// checked at a position before pos.
func (fl *funcFlow) sanitizedBefore(r ref, pos token.Pos) bool {
	if p, ok := fl.sanitized[r]; ok && p < pos {
		return true
	}
	if r.path != "" {
		if p, ok := fl.sanitized[ref{obj: r.obj}]; ok && p < pos {
			return true
		}
	}
	return false
}

// taintOfExpr merges the taint of every unsanitized ref in e at pos,
// plus any direct source call embedded in e. It returns the merged value
// and the name of the first tainted ref (for diagnostics).
func (fl *funcFlow) taintOfExpr(e ast.Expr, cutoff token.Pos) (taintVal, string) {
	var out taintVal
	name := ""
	for _, r := range fl.exprRefs(e) {
		tv, ok := fl.lookupTaint(r)
		if !ok || fl.sanitizedBefore(r, cutoff) {
			continue
		}
		if name == "" && tv.direct {
			name = refName(r)
		}
		out = mergeTaint(out, tv)
	}
	if src := fl.directSourceIn(e); src != nil && src.viaCall {
		// A summarized tainted result used inline (no local variable).
		out = mergeTaint(out, *src)
		if name == "" {
			name = src.srcDesc
		}
	}
	return out, name
}

func refName(r ref) string {
	return r.obj.Name() + r.path
}

// shortPos renders a position as base-filename:line for summary chains.
func (prog *Program) shortPos(pos token.Pos) string {
	p := prog.fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// summaryFacts evaluates the sinks and returns for summary purposes:
// which results are tainted, which parameters flow to which results, and
// which parameters reach an unchecked allocation or loop bound.
func (fl *funcFlow) summaryFacts() ([]bool, []uint64, map[int]string) {
	sinks := make(map[int]string)
	fname := fl.fd.Name.Name
	for _, s := range fl.sinks {
		tv, _ := fl.taintOfExpr(s.expr, s.cutoff)
		if tv.params == 0 {
			continue
		}
		var desc string
		switch s.kind {
		case sinkMake:
			desc = fmt.Sprintf("a make() in %s (%s)", fname, fl.prog.shortPos(s.pos))
		case sinkLoop:
			desc = fmt.Sprintf("a loop bound in %s (%s)", fname, fl.prog.shortPos(s.pos))
		case sinkCall:
			desc = fmt.Sprintf("%s via %s", s.desc, fname)
		}
		for i := 0; i < len(fl.params) && i < 64; i++ {
			if tv.params&(1<<uint(i)) != 0 {
				if _, ok := sinks[i]; !ok {
					sinks[i] = desc
				}
			}
		}
	}
	// Tainted results: explicit return expressions plus named results.
	nResults := 0
	if fl.fd.Type.Results != nil {
		for _, f := range fl.fd.Type.Results.List {
			if len(f.Names) == 0 {
				nResults++
			} else {
				nResults += len(f.Names)
			}
		}
	}
	tainted := make([]bool, nResults)
	masks := make([]uint64, nResults)
	markReturn := func(i int, e ast.Expr) {
		if i >= nResults || !isIntType(fl.pkg.Info.TypeOf(e)) {
			return
		}
		tv, _ := fl.taintOfExpr(e, e.Pos())
		if tv.direct {
			tainted[i] = true
		}
		// An inline pattern-source call (return r.ReadBits(n)) is a tainted
		// result even though taintOfExpr skips it (the zero-hop sink rule
		// tracks named values only).
		if src := fl.directSourceIn(e); src != nil {
			tainted[i] = true
		}
		masks[i] |= tv.params
	}
	for _, ret := range fl.returns {
		if len(ret.Results) == 1 && nResults > 1 {
			// Bare call pass-through: results inherit the callee's facts.
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				if name := calleeName(call); name != "" && taintSourcePattern.MatchString(name) {
					for i := range tainted {
						tainted[i] = true
					}
				} else if f := resolveCallee(fl.pkg, call); f != nil && fl.prog.isModuleFunc(f) {
					if s := fl.prog.sums[f]; s != nil {
						for i, t := range s.taintedResults {
							if i < nResults && t {
								tainted[i] = true
							}
						}
					}
				}
				// The args' param taint flows into every result,
				// respecting the callee's own resultParams via exprRefs.
				tv, _ := fl.taintOfExpr(ret.Results[0], ret.Pos())
				for i := range masks {
					masks[i] |= tv.params
				}
			}
			continue
		}
		for i, e := range ret.Results {
			markReturn(i, e)
		}
		if len(ret.Results) == 0 {
			for i, obj := range fl.results {
				if i >= nResults || !isIntType(obj.Type()) {
					continue
				}
				if fl.sanitizedBefore(ref{obj: obj}, ret.Pos()) {
					continue
				}
				if tv, ok := fl.lookupTaint(ref{obj: obj}); ok {
					if tv.direct {
						tainted[i] = true
					}
					masks[i] |= tv.params
				}
			}
		}
	}
	anyT, anyM := false, false
	for i := range tainted {
		anyT = anyT || tainted[i]
		anyM = anyM || masks[i] != 0
	}
	if !anyT {
		tainted = tainted[:0]
	}
	if !anyM {
		masks = masks[:0]
	}
	return tainted, masks, sinks
}
