package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one rule violation at a source position.
type Diagnostic struct {
	// Pos locates the violation (file, line, column).
	Pos token.Position
	// Code is the rule code, e.g. "GL001".
	Code string
	// Severity is "error" for rule violations and "warning" for hygiene
	// findings (stale lint:ignore directives found by the audit).
	Severity string
	// Message explains the violation and the expected fix.
	Message string
	// Path, for call-graph rules (GL009, GL010), is the call path from the
	// certified entry point (or hotpath root) to the offending site.
	Path []PathStep
}

// PathStep is one hop of a call-graph diagnostic's path: the function
// entered, the call site that entered it, and — for a conservative edge —
// why the analyzer assumed the call could happen.
type PathStep struct {
	// Func names the function entered, as package.Func or
	// package.(Type).Method.
	Func string
	// Pos is the call site (for the first step, the entry point's
	// declaration).
	Pos token.Position
	// Via explains a conservative edge ("interface engine.Transport",
	// "func value"); empty for an exact edge.
	Via string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Code, d.Message)
}

// Result is the outcome of checking one package: the surviving diagnostics
// plus per-code counts of findings and of suppressed findings.
type Result struct {
	Diagnostics []Diagnostic
	// Suppressed counts, per rule code, the findings silenced by a
	// well-formed //lint:ignore directive.
	Suppressed map[string]int
}

// Rule is one graphlint check.
type Rule struct {
	// Code is the stable identifier (GL001..).
	Code string
	// Doc is the one-line description shown by graphlint -rules.
	Doc string
	// check appends the rule's findings for pkg to the report.
	check func(pkg *Package, r *reporter)
}

// Rules returns the full rule set in code order.
func Rules() []Rule {
	return []Rule{
		{Code: "GL001", Doc: "order-sensitive accumulation (append / channel send) inside a map-range body", check: checkGL001},
		{Code: "GL002", Doc: "math/rand import outside internal/rng", check: checkGL002},
		{Code: "GL003", Doc: "fmt.Print* call or os.Stdout reference in an internal/ library package", check: checkGL003},
		{Code: "GL004", Doc: "floating-point += / -= on a captured variable inside goroutine-launched code", check: checkGL004},
		{Code: "GL005", Doc: "exported identifier in the root package without a doc comment", check: checkGL005},
		{Code: "GL006", Doc: "sync.Mutex, sync.RWMutex or partition.Assignment passed by value", check: checkGL006},
		{Code: "GL007", Doc: "time.Now / time.Since / time.Until call outside the clock allowlist (obs seam, wire socket deadlines)", check: checkGL007},
		{Code: "GL008", Doc: "ValidateOptions.CapacitySlack set to a capacity-disabling constant (>= 10) instead of SkipCapacity", check: checkGL008},
		{Code: "GL011", Doc: "closure passed to internal/parallel.ForEach/Map writes captured state instead of an index-addressed destination", check: checkGL011},
	}
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	codes  []string
	reason string
	pos    token.Position
}

// reporter accumulates diagnostics for one package (or, for module rules,
// one module) and applies suppression.
type reporter struct {
	fset *token.FileSet
	diag []Diagnostic
}

// report records a finding at pos.
func (r *reporter) report(pos token.Pos, code, format string, args ...any) {
	r.diag = append(r.diag, Diagnostic{
		Pos:      r.fset.Position(pos),
		Code:     code,
		Severity: "error",
		Message:  fmt.Sprintf(format, args...),
	})
}

// reportPath records a finding at pos carrying a call path.
func (r *reporter) reportPath(pos token.Pos, code string, path []PathStep, format string, args ...any) {
	r.diag = append(r.diag, Diagnostic{
		Pos:      r.fset.Position(pos),
		Code:     code,
		Severity: "error",
		Message:  fmt.Sprintf(format, args...),
		Path:     path,
	})
}

// Check runs every rule over pkg and returns the surviving diagnostics,
// sorted by position, plus suppression counts.
//
// A finding is suppressed by a comment of the form
//
//	//lint:ignore GL002 one-line reason
//
// either trailing on the offending line or alone on the line directly above
// it. The reason is mandatory: a directive without one does not suppress
// anything and is itself reported (as GL000), so blanket or unexplained
// suppressions cannot land.
func Check(pkg *Package) Result {
	r := &reporter{fset: pkg.Fset}
	for _, rule := range Rules() {
		rule.check(pkg, r)
	}
	directives := collectIgnores(pkg, r)
	res := Result{Suppressed: map[string]int{}}
	for _, d := range r.diag {
		if dir := matchIgnore(directives, d); dir != nil {
			res.Suppressed[d.Code]++
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	sortDiagnostics(res.Diagnostics)
	return res
}

// sortDiagnostics orders diagnostics by (file, line, column, code).
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Code < b.Code
	})
}

// ModuleResult is the outcome of a whole-module run: every package checked
// by the per-package rules, the call-graph rules run over the full graph,
// suppression applied, and the directive audit computed.
type ModuleResult struct {
	// Diagnostics are the surviving findings, sorted by position.
	Diagnostics []Diagnostic
	// Suppressed counts, per rule code, the findings silenced by a
	// well-formed //lint:ignore directive.
	Suppressed map[string]int
	// Stale lists, as GL000 warnings, every //lint:ignore directive that
	// suppressed nothing in this run: the code it silences no longer fires
	// there, so the directive (and whatever fear motivated it) is dead
	// weight. Reported separately so graphlint can gate on it only under
	// -audit.
	Stale []Diagnostic
}

// CheckModule runs the per-package rules over every package and the
// module-wide call-graph rules (GL009, GL010) over the whole set, applies
// //lint:ignore suppression across all of it, and audits the directives
// themselves for staleness. This is the entry point cmd/graphlint uses; the
// per-package Check remains for corpus tests that exercise one rule in
// isolation.
func CheckModule(pkgs []*Package) ModuleResult {
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	var diags []Diagnostic
	var dirs []ignoreDirective
	for _, pkg := range sorted {
		r := &reporter{fset: pkg.Fset}
		for _, rule := range Rules() {
			rule.check(pkg, r)
		}
		dirs = append(dirs, collectIgnores(pkg, r)...)
		diags = append(diags, r.diag...)
	}

	m := BuildModule(sorted)
	if m.fset != nil {
		mr := &reporter{fset: m.fset}
		for _, rule := range ModuleRules() {
			rule.check(m, mr)
		}
		diags = append(diags, mr.diag...)
	}

	used := make([]bool, len(dirs))
	res := ModuleResult{Suppressed: map[string]int{}}
	for _, d := range diags {
		if dir := matchIgnore(dirs, d); dir != nil {
			for i := range dirs {
				if &dirs[i] == dir {
					used[i] = true
				}
			}
			res.Suppressed[d.Code]++
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	for i, dir := range dirs {
		if used[i] {
			continue
		}
		res.Stale = append(res.Stale, Diagnostic{
			Pos:      dir.pos,
			Code:     "GL000",
			Severity: "warning",
			Message: fmt.Sprintf("stale lint:ignore %s: no such finding fires here any more; delete the directive",
				strings.Join(dir.codes, " ")),
		})
	}
	sortDiagnostics(res.Diagnostics)
	sortDiagnostics(res.Stale)
	return res
}

// JSON renders the result in the machine-readable schema documented in
// DESIGN.md §16. trimPrefix, when non-empty, is stripped from file paths
// (pass the module root for repo-relative output).
func (res ModuleResult) JSON(trimPrefix string) ([]byte, error) {
	type jsonStep struct {
		Func string `json:"func"`
		File string `json:"file"`
		Line int    `json:"line"`
		Via  string `json:"via,omitempty"`
	}
	type jsonDiag struct {
		File     string     `json:"file"`
		Line     int        `json:"line"`
		Column   int        `json:"column"`
		Code     string     `json:"code"`
		Severity string     `json:"severity"`
		Message  string     `json:"message"`
		Path     []jsonStep `json:"path,omitempty"`
	}
	rel := func(name string) string {
		if trimPrefix == "" {
			return name
		}
		return strings.TrimPrefix(strings.TrimPrefix(name, trimPrefix), "/")
	}
	conv := func(diags []Diagnostic) []jsonDiag {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			jd := jsonDiag{
				File: rel(d.Pos.Filename), Line: d.Pos.Line, Column: d.Pos.Column,
				Code: d.Code, Severity: d.Severity, Message: d.Message,
			}
			for _, s := range d.Path {
				jd.Path = append(jd.Path, jsonStep{
					Func: s.Func, File: rel(s.Pos.Filename), Line: s.Pos.Line, Via: s.Via,
				})
			}
			out = append(out, jd)
		}
		return out
	}
	return json.MarshalIndent(struct {
		Diagnostics []jsonDiag     `json:"diagnostics"`
		Stale       []jsonDiag     `json:"stale"`
		Suppressed  map[string]int `json:"suppressed"`
	}{conv(res.Diagnostics), conv(res.Stale), res.Suppressed}, "", "  ")
}

// collectIgnores parses every //lint:ignore directive in the package,
// reporting malformed ones (missing code or missing reason) as GL000.
func collectIgnores(pkg *Package, r *reporter) []ignoreDirective {
	var out []ignoreDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				var codes []string
				for len(fields) > 0 && strings.HasPrefix(fields[0], "GL") {
					codes = append(codes, fields[0])
					fields = fields[1:]
				}
				pos := pkg.Fset.Position(c.Pos())
				if len(codes) == 0 {
					r.report(c.Pos(), "GL000", "lint:ignore directive names no GLxxx rule code")
					continue
				}
				if len(fields) == 0 {
					r.report(c.Pos(), "GL000", "lint:ignore %s has no reason; a one-line justification is required", strings.Join(codes, " "))
					continue
				}
				out = append(out, ignoreDirective{codes: codes, reason: strings.Join(fields, " "), pos: pos})
			}
		}
	}
	return out
}

// matchIgnore returns the directive suppressing d, if any: same file, same
// rule code, and on the same line as the finding or the line directly above.
func matchIgnore(dirs []ignoreDirective, d Diagnostic) *ignoreDirective {
	if d.Code == "GL000" {
		return nil // malformed directives cannot be suppressed
	}
	for i := range dirs {
		dir := &dirs[i]
		if dir.pos.Filename != d.Pos.Filename {
			continue
		}
		if dir.pos.Line != d.Pos.Line && dir.pos.Line != d.Pos.Line-1 {
			continue
		}
		for _, code := range dir.codes {
			if code == d.Code {
				return dir
			}
		}
	}
	return nil
}

// inspectFiles walks every file of the package.
func inspectFiles(pkg *Package, fn func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, fn)
	}
}
