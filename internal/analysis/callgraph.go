package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the static call graph the module-wide rules (GL009–GL011)
// traverse. The graph is deliberately conservative: edges the type checker
// can prove (direct calls, concrete method calls) are exact, and edges it
// cannot prove are over-approximated — an interface method call fans out to
// every module type implementing the interface, and a call through a
// function value fans out to every address-taken module function with a
// compatible signature. Over-approximation can only produce spurious
// findings (silenced with a reasoned //lint:ignore), never missed ones,
// which is the right failure mode for a determinism certificate.

// FuncNode is one module function (or method) in the call graph.
type FuncNode struct {
	// Obj is the type checker's object for the function.
	Obj *types.Func
	// Decl is the function's declaration, body included.
	Decl *ast.FuncDecl
	// Pkg is the package the function was loaded from.
	Pkg *Package
	// Calls are the outgoing edges, in source order (conservative edges
	// ordered by callee name at the same call site).
	Calls []CallEdge

	facts   []factHit // leaf facts, computed by computeFacts
	hotHits []factHit // GL010 allocation-pattern hits, computed lazily
	hotDone bool
	hot     *hotPathDirective
}

// Name renders the function as package.Func or package.(Type).Method.
func (n *FuncNode) Name() string {
	obj := n.Obj
	pkg := shortPkg(obj.Pkg())
	if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			return pkg + ".(" + named.Obj().Name() + ")." + obj.Name()
		}
	}
	return pkg + "." + obj.Name()
}

// shortPkg returns the last import-path element of pkg ("" for nil).
func shortPkg(pkg *types.Package) string {
	if pkg == nil {
		return ""
	}
	path := pkg.Path()
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// CallEdge is one resolved call: exact for direct and concrete-method
// calls, conservative (Via != "") for interface and function-value calls.
type CallEdge struct {
	// Callee is the target function node.
	Callee *FuncNode
	// Pos locates the call expression in the caller.
	Pos token.Pos
	// Via explains a conservative edge ("interface partition.Partitioner",
	// "func value"); empty for an exact edge.
	Via string
}

// dynSite is one call the type checker cannot resolve exactly; the build's
// resolution worklist expands each site into conservative edges.
type dynSite struct {
	caller *FuncNode
	pos    token.Pos
	// iface and method describe an interface method call; when iface is
	// nil the site is a call through a function value of signature sig.
	iface  *types.Interface
	method string
	sig    string
	// ifaceName names the interface for the edge's Via label.
	ifaceName string
}

// Module is the whole-program view the module-wide rules run over: every
// loaded package, the function index, and the resolved call graph.
type Module struct {
	// Pkgs are the packages the graph covers, sorted by import path.
	Pkgs []*Package
	// Path is the module path (import path of the root package).
	Path string

	fset  *token.FileSet
	funcs []*FuncNode
	byObj map[*types.Func]*FuncNode
	// enclosing maps each file to its package, for directive lookups.
	pkgByFile map[string]*Package
}

// BuildModule indexes every function of pkgs and resolves the call graph.
// The packages must come from one Loader (they share its FileSet).
func BuildModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:      pkgs,
		byObj:     map[*types.Func]*FuncNode{},
		pkgByFile: map[string]*Package{},
	}
	if len(pkgs) > 0 {
		m.fset = pkgs[0].Fset
		m.Path = pkgs[0].Module
	}
	// Pass 1: index declared functions, in (package, file, position) order.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			m.pkgByFile[pkg.Fset.Position(f.Pos()).Filename] = pkg
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
				m.funcs = append(m.funcs, node)
				m.byObj[obj] = node
			}
		}
	}
	addrTaken := m.collectAddressTaken()
	var sites []dynSite
	for _, node := range m.funcs {
		sites = append(sites, m.collectCalls(node)...)
		computeFacts(node)
	}
	m.resolveDynamic(sites, addrTaken)
	for _, node := range m.funcs {
		sortEdges(node.Calls)
	}
	return m
}

// Funcs returns every indexed function in deterministic order.
func (m *Module) Funcs() []*FuncNode { return m.funcs }

// node returns the FuncNode for obj, or nil for functions outside the
// module (stdlib) or without bodies.
func (m *Module) node(obj *types.Func) *FuncNode {
	if obj == nil {
		return nil
	}
	return m.byObj[obj]
}

// collectAddressTaken finds every module function whose identifier is used
// outside call position — assigned, passed, stored or returned as a value —
// keyed by normalized signature. A call through a function value can reach
// exactly these functions (plus stdlib ones, which have no bodies to
// analyze), so they are the conservative targets of func-value call sites.
func (m *Module) collectAddressTaken() map[string][]*FuncNode {
	out := map[string][]*FuncNode{}
	for _, pkg := range m.Pkgs {
		callIdents := map[*ast.Ident]bool{}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id := calleeIdent(call.Fun); id != nil {
					callIdents[id] = true
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || callIdents[id] {
					return true
				}
				fn, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				if node := m.node(fn); node != nil {
					key := sigKey(fn.Type().(*types.Signature))
					if !containsNode(out[key], node) {
						out[key] = append(out[key], node)
					}
				}
				return true
			})
		}
	}
	for _, nodes := range out {
		sortNodes(nodes)
	}
	return out
}

func containsNode(nodes []*FuncNode, n *FuncNode) bool {
	for _, x := range nodes {
		if x == n {
			return true
		}
	}
	return false
}

// calleeIdent unwraps a call's Fun expression to the identifier that names
// the callee: x in x(...), x.f in pkg-qualified and method calls, and the
// inner expression of parenthesized and generic-instantiated forms.
func calleeIdent(fun ast.Expr) *ast.Ident {
	for {
		switch e := fun.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			return e.Sel
		case *ast.ParenExpr:
			fun = e.X
		case *ast.IndexExpr:
			fun = e.X
		case *ast.IndexListExpr:
			fun = e.X
		default:
			return nil
		}
	}
}

// collectCalls resolves node's call expressions: exact edges immediately,
// unresolvable ones as dynamic sites for the worklist. Calls inside func
// literals are attributed to the enclosing declared function — an
// over-approximation (the literal might never run) consistent with the
// graph's conservative direction. Calls inside invariants.Enabled-gated
// blocks are omitted: Enabled is a build-tag constant (false by default),
// so the compiler dead-codes those blocks out of the shipped binary — the
// same exclusion the loader applies to tag-gated files, one granularity
// finer.
func (m *Module) collectCalls(node *FuncNode) []dynSite {
	pkg := node.Pkg
	cold := coldRanges(pkg, node.Decl.Body)
	var sites []dynSite
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if inCold(cold, call.Pos()) {
			return true
		}
		// A conversion T(x) is not a call.
		if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				callee := sel.Obj().(*types.Func)
				if types.IsInterface(sel.Recv()) {
					iface := sel.Recv().Underlying().(*types.Interface)
					sites = append(sites, dynSite{
						caller: node, pos: call.Pos(),
						iface: iface, method: callee.Name(),
						ifaceName: types.TypeString(sel.Recv(), shortQualifier),
					})
				} else if target := m.node(callee); target != nil {
					node.Calls = append(node.Calls, CallEdge{Callee: target, Pos: call.Pos()})
				}
				return true
			}
			// Package-qualified call (pkg.F) or a func-typed field/value.
			m.resolveIdentCall(node, call, fun.Sel, &sites)
		case *ast.Ident:
			m.resolveIdentCall(node, call, fun, &sites)
		default:
			// Call of an arbitrary expression (map element, call result):
			// a func-value site resolved by signature.
			if sig, ok := pkg.Info.TypeOf(call.Fun).(*types.Signature); ok {
				sites = append(sites, dynSite{caller: node, pos: call.Pos(), sig: sigKey(sig)})
			}
		}
		return true
	})
	return sites
}

// resolveIdentCall classifies a call whose callee is named by id: an exact
// edge for a declared function, nothing for builtins, and a func-value
// dynamic site for variables and parameters of function type.
func (m *Module) resolveIdentCall(node *FuncNode, call *ast.CallExpr, id *ast.Ident, sites *[]dynSite) {
	switch obj := node.Pkg.Info.Uses[id].(type) {
	case *types.Func:
		if target := m.node(obj); target != nil {
			node.Calls = append(node.Calls, CallEdge{Callee: target, Pos: call.Pos()})
		}
	case *types.Builtin:
		// append/len/...: no edge; facts record the allocation side.
	case *types.Var:
		if sig, ok := obj.Type().Underlying().(*types.Signature); ok {
			*sites = append(*sites, dynSite{caller: node, pos: call.Pos(), sig: sigKey(sig)})
		}
	}
}

// resolveDynamic expands the unresolved call sites into conservative edges
// with an explicit worklist: interface sites fan out to every module type
// implementing the interface, func-value sites to every address-taken
// function with a matching signature. Processing an entry never enqueues
// new sites (the site and address-taken sets are fixed at build time), so
// the loop terminates after one sweep; the worklist form keeps the
// resolution order explicit and deterministic.
func (m *Module) resolveDynamic(sites []dynSite, addrTaken map[string][]*FuncNode) {
	named := m.moduleNamedTypes()
	work := append([]dynSite(nil), sites...)
	for len(work) > 0 {
		site := work[0]
		work = work[1:]
		if site.iface != nil {
			for _, t := range named {
				impl := implementation(t, site.iface, site.method)
				if impl == nil {
					continue
				}
				if target := m.node(impl); target != nil {
					site.caller.Calls = append(site.caller.Calls, CallEdge{
						Callee: target, Pos: site.pos,
						Via: "interface " + site.ifaceName,
					})
				}
			}
			continue
		}
		for _, target := range addrTaken[site.sig] {
			site.caller.Calls = append(site.caller.Calls, CallEdge{
				Callee: target, Pos: site.pos, Via: "func value",
			})
		}
	}
}

// moduleNamedTypes lists every named (non-interface) type declared in the
// module, in deterministic (package, name) order.
func (m *Module) moduleNamedTypes() []types.Type {
	var out []types.Type
	for _, pkg := range m.Pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t) {
				continue
			}
			out = append(out, t)
		}
	}
	return out
}

// implementation returns t's (or *t's) method named method when t
// implements iface, or nil.
func implementation(t types.Type, iface *types.Interface, method string) *types.Func {
	target := t
	if !types.Implements(t, iface) {
		pt := types.NewPointer(t)
		if !types.Implements(pt, iface) {
			return nil
		}
		target = pt
	}
	obj, _, _ := types.LookupFieldOrMethod(target, true, nil, method)
	fn, _ := obj.(*types.Func)
	return fn
}

// sigKey normalizes a signature (parameters and results, receiver ignored)
// for func-value target matching.
func sigKey(sig *types.Signature) string {
	plain := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return types.TypeString(plain, nil)
}

// shortQualifier renders package names by their last path element.
func shortQualifier(pkg *types.Package) string { return shortPkg(pkg) }

func sortNodes(nodes []*FuncNode) {
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Pkg.Path != nodes[j].Pkg.Path {
			return nodes[i].Pkg.Path < nodes[j].Pkg.Path
		}
		return nodes[i].Obj.Pos() < nodes[j].Obj.Pos()
	})
}

func sortEdges(edges []CallEdge) {
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].Pos != edges[j].Pos {
			return edges[i].Pos < edges[j].Pos
		}
		return edges[i].Callee.Name() < edges[j].Callee.Name()
	})
}

// isSeamPackage reports whether path (module-relative) is one of the
// sanctioned nondeterminism seams: the sites GL002 and GL007 already allow
// and through which every clock read and random draw is required to flow.
// GL009's certificate traversal stops at a seam boundary — a path into
// internal/rng is a *seeded* draw by construction, a path into internal/obs
// is record-only telemetry, and internal/wire's only wall-clock read is the
// deadline arming in deadline.go (GL007 flags any other wire file;
// the cluster telemetry-upload path records and timestamps exclusively
// through obs), which never influences results (DESIGN.md §14).
func (m *Module) isSeamPackage(pkg *Package) bool {
	rel := strings.TrimPrefix(pkg.Path, m.Path+"/")
	switch rel {
	case "internal/rng", "internal/obs", "internal/wire":
		return true
	}
	return false
}
