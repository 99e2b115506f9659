package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// ---------------------------------------------------------------------------
// GL001 — order-sensitive accumulation inside a map-range body.
//
// Go randomises map iteration order, so a map-range body that appends to a
// slice declared outside the loop, or sends on a channel, produces output
// whose order varies run to run — the exact bug class that made small-window
// sliding-TLP runs worker-count-sensitive before PR 2 sorted its refill and
// sweep paths. Writes keyed by the range variable (m2[k] = v) and commutative
// reductions (sum += v) are order-insensitive and are not flagged. The
// sanctioned fix is to collect the keys, sort, and iterate the sorted slice;
// a collect-then-sort site needs a one-line //lint:ignore GL001 reason.
// ---------------------------------------------------------------------------

func checkGL001(pkg *Package, r *reporter) {
	inspectFiles(pkg, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, ok := tv.Type.Underlying().(*types.Map); !ok {
			return true
		}
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.SendStmt:
				r.report(s.Pos(), "GL001",
					"channel send inside a map-range body delivers in map-iteration order (nondeterministic); iterate a sorted key slice instead")
			case *ast.AssignStmt:
				for i, rhs := range s.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isBuiltinAppend(pkg, call) || i >= len(s.Lhs) {
						continue
					}
					if target, outside := declaredOutside(pkg, s.Lhs[i], rs); outside {
						r.report(s.Pos(), "GL001",
							"append to %q inside a map-range body accumulates in map-iteration order (nondeterministic); collect keys, sort, then iterate", target)
					}
				}
			}
			return true
		})
		return true
	})
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pkg *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, ok = pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// declaredOutside reports whether the base identifier of expr names a
// variable declared outside node, returning the identifier's name.
func declaredOutside(pkg *Package, expr ast.Expr, node ast.Node) (string, bool) {
	id := baseIdent(expr)
	if id == nil {
		return "", false
	}
	obj := pkg.Info.ObjectOf(id)
	if obj == nil || obj.Pos() == 0 {
		return "", false
	}
	outside := obj.Pos() < node.Pos() || obj.Pos() >= node.End()
	return id.Name, outside
}

// baseIdent returns the leftmost identifier of expr (x in x, x.f, x[i]).
func baseIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// ---------------------------------------------------------------------------
// GL002 — unseeded randomness: math/rand imports.
//
// Every random decision in the repository must flow through internal/rng's
// seeded SplitMix64/xoshiro generator so that runs are reproducible across
// machines and Go versions. Only internal/rng may import math/rand (it wraps
// the seeded generator). Wall-clock reads are GL007's concern.
// ---------------------------------------------------------------------------

func checkGL002(pkg *Package, r *reporter) {
	if pkg.isAt("internal/rng") {
		return
	}
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == "math/rand" || p == "math/rand/v2" {
				r.report(imp.Pos(), "GL002",
					"import of %s outside internal/rng: all randomness must flow through the seeded internal/rng generator", p)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// GL003 — stdout writes from internal/ library packages.
//
// Library packages return data or accept an io.Writer; only the cmd/ and
// examples/ layers may talk to the terminal. A stray fmt.Print in a library
// package corrupts CSV piped from the CLIs and hides behind test output.
// ---------------------------------------------------------------------------

func checkGL003(pkg *Package, r *reporter) {
	if !strings.Contains(pkg.Path+"/", "/internal/") {
		return
	}
	printFuncs := map[string]bool{"Print": true, "Printf": true, "Println": true}
	inspectFiles(pkg, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch obj := pkg.Info.Uses[sel.Sel].(type) {
		case *types.Func:
			if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" && printFuncs[obj.Name()] {
				r.report(sel.Pos(), "GL003",
					"fmt.%s in an internal library package writes to stdout; return data or take an io.Writer", obj.Name())
			}
		case *types.Var:
			if obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "Stdout" {
				r.report(sel.Pos(), "GL003",
					"os.Stdout referenced in an internal library package; take an io.Writer and let the cmd layer choose the destination")
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// GL004 — racy floating-point accumulation in goroutine-launched literals.
//
// A captured float accumulated with += from a goroutine is both a data race
// and — even when externally synchronised — an order-of-arrival sum, which
// breaks bit-identical reproducibility because float addition is not
// associative. The sanctioned shape is the slot accumulator used by
// internal/engine and the metric shards: each goroutine writes its own
// element (acc[i] = v) and a single owner folds the slots in canonical
// order. Indexed writes are therefore not flagged; captured bare
// identifiers are.
// ---------------------------------------------------------------------------

func checkGL004(pkg *Package, r *reporter) {
	inspectFiles(pkg, func(n ast.Node) bool {
		var lits []*ast.FuncLit
		switch s := n.(type) {
		case *ast.GoStmt:
			if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
				lits = append(lits, fl)
			}
		case *ast.CallExpr:
			if calleeInPackageSuffix(pkg, s, "/internal/parallel") {
				for _, arg := range s.Args {
					if fl, ok := arg.(*ast.FuncLit); ok {
						lits = append(lits, fl)
					}
				}
			}
		}
		for _, fl := range lits {
			checkGL004Lit(pkg, r, fl)
		}
		return true
	})
}

// checkGL004Lit flags captured-float compound assignment inside one
// goroutine-launched literal.
func checkGL004Lit(pkg *Package, r *reporter, fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok.String() != "+=" && as.Tok.String() != "-=") || len(as.Lhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true // indexed/field writes are the slot-accumulator shape
		}
		t := pkg.Info.TypeOf(id)
		if t == nil {
			return true
		}
		basic, ok := t.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsFloat == 0 {
			return true
		}
		if _, outside := declaredOutside(pkg, id, fl); outside {
			r.report(as.Pos(), "GL004",
				"float %s %s inside a goroutine-launched func literal accumulates in arrival order; use a per-goroutine slot and fold in canonical order (see internal/engine)", id.Name, as.Tok)
		}
		return true
	})
}

// calleeInPackageSuffix reports whether call's callee is a package-level
// function of a package whose import path ends with suffix.
func calleeInPackageSuffix(pkg *Package, call *ast.CallExpr, suffix string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(fn.Pkg().Path(), suffix)
}

// ---------------------------------------------------------------------------
// GL005 — undocumented exported identifiers in the root facade package.
//
// The root package is the library's public API; every exported identifier
// is someone's first contact with the system and must say what it is. Only
// the facade is checked — internal packages document themselves for
// maintainers at whatever granularity fits.
// ---------------------------------------------------------------------------

func checkGL005(pkg *Package, r *reporter) {
	if pkg.Path != pkg.Module {
		return
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					r.report(d.Name.Pos(), "GL005", "exported %s %s has no doc comment", declKind(d), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && sp.Doc == nil && d.Doc == nil {
							r.report(sp.Name.Pos(), "GL005", "exported type %s has no doc comment", sp.Name.Name)
						}
					case *ast.ValueSpec:
						// A preceding doc comment on the spec or on the decl
						// (group doc) counts; a trailing line comment does not
						// — godoc renders only the former as documentation.
						if sp.Doc != nil || d.Doc != nil {
							continue
						}
						for _, name := range sp.Names {
							if name.IsExported() {
								r.report(name.Pos(), "GL005", "exported %s %s has no doc comment", strings.ToLower(d.Tok.String()), name.Name)
							}
						}
					}
				}
			}
		}
	}
}

func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// ---------------------------------------------------------------------------
// GL006 — locks and assignments passed by value.
//
// Copying a sync.Mutex/RWMutex silently forks the lock state; copying a
// partition.Assignment forks the parts/loads slices' header while sharing
// the backing arrays, so mutations through the copy corrupt the original's
// load accounting. Both must travel as pointers.
// ---------------------------------------------------------------------------

func checkGL006(pkg *Package, r *reporter) {
	inspectFiles(pkg, func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok {
			return true
		}
		var fields []*ast.Field
		if fd.Recv != nil {
			fields = append(fields, fd.Recv.List...)
		}
		if fd.Type.Params != nil {
			fields = append(fields, fd.Type.Params.List...)
		}
		for _, field := range fields {
			t := pkg.Info.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if bad := badValueType(t); bad != "" {
				r.report(field.Type.Pos(), "GL006",
					"%s passed by value; pass *%s (value copies fork lock or load state)", bad, bad)
			}
		}
		return true
	})
}

// badValueType reports the display name of t when t is one of the
// must-not-copy types (sync.Mutex, sync.RWMutex, partition.Assignment)
// taken by value, or "" otherwise.
func badValueType(t types.Type) string {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	switch {
	case obj.Pkg().Path() == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex"):
		return "sync." + obj.Name()
	case strings.HasSuffix(obj.Pkg().Path(), "/internal/partition") && obj.Name() == "Assignment":
		return "partition.Assignment"
	}
	return ""
}

// ---------------------------------------------------------------------------
// GL007 — wall-clock reads outside the telemetry clock seam.
//
// internal/obs is the single sanctioned clock site: its Clock seam makes
// every timing path injectable (deterministic tests swap in a step clock),
// and its Stopwatch is the one elapsed-time primitive. Direct calls to
// time.Now / time.Since / time.Until anywhere else — library code, mains,
// examples — bypass the seam and fragment timing behaviour. One site is
// exempt besides the seam, and only file-scoped: internal/wire's deadline.go for net.Conn deadline arming: socket
// deadlines are compared against the kernel's wall clock by the runtime
// poller, so a deadline computed from an injected obs.Clock would hang (or
// instantly expire) real socket I/O. The rest of internal/wire gets no
// allowance — its worker spans, barrier-skew instants and telemetry-upload
// codec all time through obs, so those paths stay deterministic under an
// injected clock. GL007 is the one clock rule: it flags time.Now as well as
// the derived helpers.
// ---------------------------------------------------------------------------

func checkGL007(pkg *Package, r *reporter) {
	if pkg.isAt("internal/obs") {
		return
	}
	wireDeadline := pkg.isAt("internal/wire")
	wallClock := map[string]bool{"Now": true, "Since": true, "Until": true}
	inspectFiles(pkg, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallClock[fn.Name()] {
			if wireDeadline && pkg.inFile(sel.Pos(), "deadline.go") {
				return true
			}
			r.report(sel.Pos(), "GL007",
				"time.%s outside the clock allowlist (internal/obs, internal/wire/deadline.go): route timing through the obs clock seam (obs.StartWatch / obs.Now)", fn.Name())
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// GL008 — capacity checks disabled via an absurd CapacitySlack.
//
// Before ValidateOptions.SkipCapacity existed, call sites that only needed
// structural validation (completeness, range checks) disabled the load bound
// by passing a slack like 1e9 — a magic number that reads as a real
// tolerance and silently overflows the int bound computation for large
// capacities. SkipCapacity says what it means; slacks above the threshold
// are flagged as disablement in disguise. Genuine expectation-balanced
// baselines use slacks in the low single digits.
// ---------------------------------------------------------------------------

// gl008MaxSlack is the largest CapacitySlack accepted as a real tolerance; a
// constant at or above it is capacity-check disablement and must be written
// as SkipCapacity instead.
const gl008MaxSlack = 10

func checkGL008(pkg *Package, r *reporter) {
	inspectFiles(pkg, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		t := pkg.Info.TypeOf(cl)
		if t == nil || !isValidateOptions(t) {
			return true
		}
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || key.Name != "CapacitySlack" {
				continue
			}
			tv, ok := pkg.Info.Types[kv.Value]
			if !ok || tv.Value == nil {
				continue
			}
			if slack, ok := constant.Float64Val(tv.Value); ok && slack >= gl008MaxSlack {
				r.report(kv.Pos(), "GL008",
					"CapacitySlack %v effectively disables the capacity check; set SkipCapacity: true instead", tv.Value)
			}
		}
		return true
	})
}

// isValidateOptions reports whether t is partition.ValidateOptions.
func isValidateOptions(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "/internal/partition") &&
		obj.Name() == "ValidateOptions"
}

// isAt reports whether the package lives at the module-relative path rel.
func (p *Package) isAt(rel string) bool {
	return p.Path == p.Module+"/"+rel
}

// inFile reports whether pos lands in the named file (basename) of the
// package. File-scoped rule exemptions use it to keep an allowance narrower
// than a whole package.
func (p *Package) inFile(pos token.Pos, base string) bool {
	return filepath.Base(p.Fset.Position(pos).Filename) == base
}
