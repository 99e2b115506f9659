package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Module-wide rules: the checks that need the call graph (GL009, GL010) plus
// the parallel-closure write check GL011 (per-package, but introduced with
// the same family). Per-package rules see one package's syntax; module rules
// see every package, the type-checked call graph and the per-function facts,
// so they can certify properties of whole call *paths* — which is what the
// determinism and hot-path guarantees actually are.

// ModuleRule is one whole-module graphlint check.
type ModuleRule struct {
	// Code is the stable identifier (GL009..).
	Code string
	// Doc is the one-line description shown by graphlint -rules.
	Doc string
	// check appends the rule's findings for the module to the report.
	check func(m *Module, r *reporter)
}

// ModuleRules returns the module-wide rule set in code order.
func ModuleRules() []ModuleRule {
	return []ModuleRule{
		{Code: "GL009", Doc: "determinism certificate: an exported facade entry point has a call-graph path to a wall-clock or unseeded-randomness site outside the rng/obs/wire seams", check: checkGL009},
		{Code: "GL010", Doc: "hot-path allocation: a //graphpart:hotpath function (or anything it transitively calls) contains an allocation pattern (map range, unsized append, boxing, defer-in-loop, escaping closure, fmt, per-iteration make)", check: checkGL010},
	}
}

// ---------------------------------------------------------------------------
// GL009 — determinism certificates for facade entry points.
//
// A partition run must be a pure function of (graph, options, seed) — that
// is what the FNV golden oracles and the worker sweeps pin at runtime. GL002
// (math/rand imports) and GL007 (clock reads) approximate this per package;
// GL009 proves it over the call graph: from every exported facade entry point (Partition, Refine,
// Run*, Stream*, and every registered partitioner's Partition method), no
// path may reach a time.Now/Since/Until call or a math/rand / crypto/rand
// draw, except through the sanctioned seams (internal/rng: seeded by
// construction; internal/obs: record-only telemetry; internal/wire: socket
// deadlines). The traversal does not
// descend into a seam package — whatever happens inside is the seam's
// charter — and each finding carries the full offending call path, because
// a two-hop clock call is useless to report without the route to it.
// ---------------------------------------------------------------------------

// pathLink records how the GL009/GL010 traversal first reached a node.
type pathLink struct {
	caller *FuncNode
	edge   *CallEdge
}

func checkGL009(m *Module, r *reporter) {
	reported := map[token.Pos]bool{} // one diagnostic per offending fact site
	for _, entry := range m.entryPoints() {
		parent := map[*FuncNode]pathLink{}
		visited := map[*FuncNode]bool{entry: true}
		queue := []*FuncNode{entry}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, kind := range []FactKind{FactWallClock, FactRandom} {
				for _, h := range n.factsOf(kind) {
					if reported[h.pos] {
						continue
					}
					reported[h.pos] = true
					path := callPath(parent, entry, n)
					r.reportPath(h.pos, "GL009", path,
						"determinism certificate: %s reaches %s via %s; route it through the internal/rng or internal/obs seam",
						entry.Name(), h.what, renderPath(path))
				}
			}
			for i := range n.Calls {
				e := &n.Calls[i]
				callee := e.Callee
				if visited[callee] || m.isSeamPackage(callee.Pkg) {
					continue
				}
				visited[callee] = true
				parent[callee] = pathLink{caller: n, edge: e}
				queue = append(queue, callee)
			}
		}
	}
}

// entryPoints selects the functions GL009 certifies: exported facade
// functions with entry-point names, plus every module method named Partition
// on a type implementing partition.Partitioner (the registered partitioner
// families), in deterministic order.
func (m *Module) entryPoints() []*FuncNode {
	iface := m.partitionerIface()
	var out []*FuncNode
	for _, node := range m.funcs {
		name := node.Obj.Name()
		if !ast.IsExported(name) {
			continue
		}
		recv := node.Obj.Type().(*types.Signature).Recv()
		if recv == nil {
			if node.Pkg.Path != m.Path {
				continue
			}
			if name == "Partition" || name == "Refine" ||
				strings.HasPrefix(name, "Run") || strings.HasPrefix(name, "Stream") {
				out = append(out, node)
			}
			continue
		}
		if name == "Partition" && iface != nil && types.Implements(recv.Type(), iface) {
			out = append(out, node)
		}
	}
	return out
}

// partitionerIface looks up the partition.Partitioner interface, or nil when
// the package is not among the loaded set (single-package corpus runs).
func (m *Module) partitionerIface() *types.Interface {
	for _, pkg := range m.Pkgs {
		if !pkg.isAt("internal/partition") {
			continue
		}
		tn, ok := pkg.Types.Scope().Lookup("Partitioner").(*types.TypeName)
		if !ok {
			return nil
		}
		iface, _ := tn.Type().Underlying().(*types.Interface)
		return iface
	}
	return nil
}

// callPath reconstructs the traversal's route from entry to n as PathSteps.
func callPath(parent map[*FuncNode]pathLink, entry, n *FuncNode) []PathStep {
	var chain []pathLink
	for n != entry {
		link := parent[n]
		chain = append(chain, link)
		n = link.caller
	}
	fset := entry.Pkg.Fset
	steps := []PathStep{{Func: entry.Name(), Pos: fset.Position(entry.Decl.Name.Pos())}}
	for i := len(chain) - 1; i >= 0; i-- {
		link := chain[i]
		steps = append(steps, PathStep{
			Func: link.edge.Callee.Name(),
			Pos:  fset.Position(link.edge.Pos),
			Via:  link.edge.Via,
		})
	}
	return steps
}

// renderPath renders steps as "a -> b -> c" for the human-readable message
// (the structured form travels in Diagnostic.Path).
func renderPath(steps []PathStep) string {
	parts := make([]string, 0, len(steps))
	for _, s := range steps {
		name := s.Func
		if s.Via != "" {
			name += " [" + s.Via + "]"
		}
		parts = append(parts, name)
	}
	return strings.Join(parts, " -> ")
}

// ---------------------------------------------------------------------------
// GL010 — hot-path allocation lint.
//
// //graphpart:hotpath marks the functions the paper reproduction's
// throughput rests on: the Stage-I scoring kernels, partition.State.Move/
// Swap, the wire encoder, the engine superstep phases. The annotated
// function and everything it transitively calls must be free of the
// allocation patterns hotPathHits documents; each annotation must carry a
// test=TestName link tying it to an AllocsPerRun assertion, so the static
// claim is cross-checked at runtime. The traversal follows the same
// conservative call graph as GL009 (including interface fan-out — a hot
// interface call is accountable for every implementation it might reach)
// and does not stop at seam packages: seams may read clocks, not allocate
// per operation.
// ---------------------------------------------------------------------------

// hotPathDirective is one parsed //graphpart:hotpath annotation.
type hotPathDirective struct {
	pos  token.Pos
	test string // AllocsPerRun test name from the test= field
}

func checkGL010(m *Module, r *reporter) {
	annotated := m.attachHotDirectives(r)
	visited := map[*FuncNode]bool{} // each function's hits reported once, from the first root reaching it
	for _, root := range annotated {
		parent := map[*FuncNode]pathLink{}
		queue := []*FuncNode{root}
		if !visited[root] {
			visited[root] = true
			reportHotHits(r, root, root, parent)
		}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for i := range n.Calls {
				e := &n.Calls[i]
				callee := e.Callee
				if visited[callee] {
					continue
				}
				visited[callee] = true
				parent[callee] = pathLink{caller: n, edge: e}
				reportHotHits(r, root, callee, parent)
				queue = append(queue, callee)
			}
		}
	}
}

// reportHotHits reports n's allocation-pattern hits on root's hot path.
func reportHotHits(r *reporter, root, n *FuncNode, parent map[*FuncNode]pathLink) {
	hits := hotPathHits(n)
	if len(hits) == 0 {
		return
	}
	var path []PathStep
	if n != root {
		path = callPath(parent, root, n)
	}
	for _, h := range hits {
		if n == root {
			r.report(h.pos, "GL010", "hot path %s: %s", n.Name(), h.what)
		} else {
			r.reportPath(h.pos, "GL010", path,
				"hot path %s (reached from %s via %s): %s", n.Name(), root.Name(), renderPath(path), h.what)
		}
	}
}

// attachHotDirectives parses every //graphpart:hotpath annotation, attaches
// each to its function's node, and reports malformed ones: a directive with
// no test= link (the runtime cross-check is not optional) and a directive
// not attached to any function declaration.
func (m *Module) attachHotDirectives(r *reporter) []*FuncNode {
	matched := map[*ast.Comment]bool{}
	var annotated []*FuncNode
	for _, node := range m.funcs {
		if node.Decl.Doc == nil {
			continue
		}
		for _, c := range node.Decl.Doc.List {
			rest, ok := strings.CutPrefix(c.Text, "//graphpart:hotpath")
			if !ok {
				continue
			}
			matched[c] = true
			d := &hotPathDirective{pos: c.Pos()}
			for _, f := range strings.Fields(rest) {
				if v, ok := strings.CutPrefix(f, "test="); ok {
					d.test = v
				}
			}
			node.hot = d
			annotated = append(annotated, node)
			if d.test == "" {
				r.report(c.Pos(), "GL010",
					"hotpath annotation on %s names no AllocsPerRun cross-check; write //graphpart:hotpath test=TestHotPathAllocs_X", node.Name())
			}
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "//graphpart:hotpath") && !matched[c] {
						r.report(c.Pos(), "GL010",
							"hotpath annotation is not attached to a function declaration; place it in the doc comment of the function it marks")
					}
				}
			}
		}
	}
	return annotated
}

// HotAnnotations lists every //graphpart:hotpath annotation in the module as
// (function, linked test) pairs, for the test that cross-checks each link
// against a real AllocsPerRun test.
func (m *Module) HotAnnotations() []HotAnnotation {
	var out []HotAnnotation
	for _, node := range m.funcs {
		if node.Decl.Doc == nil {
			continue
		}
		for _, c := range node.Decl.Doc.List {
			rest, ok := strings.CutPrefix(c.Text, "//graphpart:hotpath")
			if !ok {
				continue
			}
			ha := HotAnnotation{Func: node.Name(), Pkg: node.Pkg.Path, Pos: m.fset.Position(c.Pos())}
			for _, f := range strings.Fields(rest) {
				if v, ok := strings.CutPrefix(f, "test="); ok {
					ha.Test = v
				}
			}
			out = append(out, ha)
		}
	}
	return out
}

// HotAnnotation is one //graphpart:hotpath annotation: the function it
// marks, its package, and the AllocsPerRun test it is tied to.
type HotAnnotation struct {
	Func string
	Pkg  string
	Test string
	Pos  token.Position
}

// ---------------------------------------------------------------------------
// GL011 — parallel-closure write safety.
//
// Worker-count invariance rests on one convention: a closure handed to
// internal/parallel.ForEach/Map writes only through index-addressed
// destinations (dst[i] = v) or returns its result, so no two workers ever
// touch the same location and joins need no ordering. A write to a captured
// scalar is a race and an arrival-order result; a write into a captured map
// is both plus a runtime panic under concurrent access; a write through a
// captured pointer is the same race one indirection later. GL004 already
// flags the float-accumulation special case; GL011 enforces the convention
// itself.
// ---------------------------------------------------------------------------

func checkGL011(pkg *Package, r *reporter) {
	parallelFns := map[string]bool{"ForEach": true, "ForEachErr": true, "Map": true, "MapErr": true}
	inspectFiles(pkg, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !calleeInPackageSuffix(pkg, call, "/internal/parallel") {
			return true
		}
		sel := call.Fun.(*ast.SelectorExpr) // guaranteed by calleeInPackageSuffix
		if !parallelFns[sel.Sel.Name] {
			return true
		}
		for _, arg := range call.Args {
			if fl, ok := arg.(*ast.FuncLit); ok {
				checkGL011Lit(pkg, r, sel.Sel.Name, fl)
			}
		}
		return true
	})
}

// checkGL011Lit flags non-index-addressed writes to captured state inside
// one parallel closure (nested literals included — they run on the same
// worker and the capture is just as shared).
func checkGL011Lit(pkg *Package, r *reporter, fn string, fl *ast.FuncLit) {
	checkLHS := func(lhs ast.Expr, op string) {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if e.Name == "_" {
				return
			}
			if _, outside := declaredOutside(pkg, e, fl); outside {
				r.report(e.Pos(), "GL011",
					"parallel.%s closure writes (%s) captured variable %q; workers race and the result is arrival-ordered — write an index-addressed slot (dst[i] = v) or return the value via parallel.Map", fn, op, e.Name)
			}
		case *ast.IndexExpr:
			t := pkg.Info.TypeOf(e.X)
			if t == nil {
				return
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return // indexed slice/array writes are the sanctioned shape
			}
			if name, outside := declaredOutside(pkg, e.X, fl); outside {
				r.report(e.Pos(), "GL011",
					"parallel.%s closure writes into captured map %q; concurrent map writes panic and fold order is arrival-ordered — write dst[i] and merge after the join", fn, name)
			}
		case *ast.StarExpr:
			if name, outside := declaredOutside(pkg, e.X, fl); outside {
				r.report(e.Pos(), "GL011",
					"parallel.%s closure writes through captured pointer %q; the pointee is shared across workers — write an index-addressed slot instead", fn, name)
			}
		}
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true // := declares closure-locals; it cannot write captured state
			}
			for _, lhs := range s.Lhs {
				checkLHS(lhs, s.Tok.String())
			}
		case *ast.IncDecStmt:
			checkLHS(s.X, s.Tok.String())
		}
		return true
	})
}
