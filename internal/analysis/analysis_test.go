package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// expectation is one diagnostic a snippet file declares it should produce,
// via a trailing "// want GLxxx" comment (or "// want-next GLxxx" on the
// line above, for diagnostics that land on lines which cannot carry a
// trailing marker, such as //lint:ignore directive lines).
type expectation struct {
	file string
	line int
	code string
}

func (e expectation) String() string {
	return fmt.Sprintf("%s:%d: %s", e.file, e.line, e.code)
}

// parseWants extracts the expectations from every .go file in dir.
func parseWants(t *testing.T, dir string) []expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, marker := range []struct {
				prefix string
				offset int
			}{
				{"// want-next ", 1},
				{"// want ", 0},
			} {
				idx := strings.Index(line, marker.prefix)
				if idx < 0 {
					continue
				}
				for _, code := range strings.Fields(line[idx+len(marker.prefix):]) {
					if !strings.HasPrefix(code, "GL") {
						t.Fatalf("%s:%d: malformed want comment: %q", e.Name(), i+1, line)
					}
					out = append(out, expectation{file: e.Name(), line: i + 1 + marker.offset, code: code})
				}
				break
			}
		}
	}
	return out
}

// diagKeys renders diagnostics in the expectation format.
func diagKeys(diags []Diagnostic) []expectation {
	var out []expectation
	for _, d := range diags {
		out = append(out, expectation{file: filepath.Base(d.Pos.Filename), line: d.Pos.Line, code: d.Code})
	}
	return out
}

// compareWants asserts got matches the want expectations exactly.
func compareWants(t *testing.T, want, got []expectation) {
	t.Helper()
	sortExpectations(want)
	sortExpectations(got)
	if len(want) != len(got) {
		t.Errorf("diagnostic count: got %d, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("diagnostic %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func sortExpectations(es []expectation) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.code < b.code
	})
}

// TestCorpus checks every snippet package under testdata/src against its
// declared expectations. The import path each package is checked under is
// part of the case, because several rules key off the package's location in
// the module (internal/, internal/rng, the module root).
func TestCorpus(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	mod := loader.modulePath
	cases := []struct {
		name string
		dir  string
		// asPath is the fabricated import path, with "<mod>" standing in
		// for the module path.
		asPath string
		// suppressed is the expected per-code suppression count.
		suppressed map[string]int
	}{
		{name: "gl001bad", dir: "gl001bad", asPath: "<mod>/internal/gl001bad"},
		{name: "gl001ok", dir: "gl001ok", asPath: "<mod>/internal/gl001ok",
			suppressed: map[string]int{"GL001": 1}},
		{name: "gl002bad", dir: "gl002bad", asPath: "<mod>/internal/gl002bad"},
		// The same constructs are clean when the package *is* the sanctioned
		// randomness home.
		{name: "gl002ok", dir: "gl002ok", asPath: "<mod>/internal/rng"},
		{name: "gl003bad", dir: "gl003bad", asPath: "<mod>/internal/gl003bad"},
		// GL003 only applies under internal/; check the ok snippet under
		// both a cmd/ path (rule not applicable) and an internal/ path
		// (applicable, but the code is clean).
		{name: "gl003ok-cmd", dir: "gl003ok", asPath: "<mod>/cmd/gl003ok"},
		{name: "gl003ok-internal", dir: "gl003ok", asPath: "<mod>/internal/gl003ok"},
		{name: "gl004bad", dir: "gl004bad", asPath: "<mod>/internal/gl004bad"},
		{name: "gl004ok", dir: "gl004ok", asPath: "<mod>/internal/gl004ok"},
		// GL005 keys off the module root path: the facade package is the
		// public surface, so it alone must be fully documented.
		{name: "gl005bad", dir: "gl005bad", asPath: "<mod>"},
		{name: "gl005ok", dir: "gl005ok", asPath: "<mod>"},
		{name: "gl006bad", dir: "gl006bad", asPath: "<mod>/internal/gl006bad"},
		{name: "gl006ok", dir: "gl006ok", asPath: "<mod>/internal/gl006ok"},
		{name: "gl007bad", dir: "gl007bad", asPath: "<mod>/internal/gl007bad"},
		// GL007 exempts only the clock seam and the wire transport; the same
		// wall-clock reads are clean under the seam's path.
		{name: "gl007ok-obs", dir: "gl007ok", asPath: "<mod>/internal/obs"},
		// The wire transport's socket-deadline arming is the second exempt
		// site, and the only file-scoped one: net.Conn deadlines compare
		// against the kernel clock, so the injectable obs.Clock cannot serve
		// them — but only deadline.go gets the allowance. The package's
		// telemetry.go carries want markers proving the same constructs are
		// flagged in every other wire file; gl007bad.ArmDeadline shows the
		// non-wire case.
		{name: "gl007wire", dir: "gl007wire", asPath: "<mod>/internal/wire"},
		{name: "gl008bad", dir: "gl008bad", asPath: "<mod>/internal/gl008bad"},
		{name: "gl008ok", dir: "gl008ok", asPath: "<mod>/internal/gl008ok"},
		{name: "gl011bad", dir: "gl011bad", asPath: "<mod>/internal/gl011bad"},
		{name: "gl011ok", dir: "gl011ok", asPath: "<mod>/internal/gl011ok"},
		{name: "suppress", dir: "suppress", asPath: "<mod>/internal/suppress",
			suppressed: map[string]int{"GL001": 1}},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			pkg, err := loader.checkDir(dir, strings.ReplaceAll(tc.asPath, "<mod>", mod))
			if err != nil {
				t.Fatalf("loading %s: %v", dir, err)
			}
			res := Check(pkg)

			compareWants(t, parseWants(t, dir), diagKeys(res.Diagnostics))
			for _, d := range res.Diagnostics {
				covered[d.Code] = true
			}

			wantSup := tc.suppressed
			if wantSup == nil {
				wantSup = map[string]int{}
			}
			if len(res.Suppressed) != len(wantSup) {
				t.Errorf("suppressed: got %v, want %v", res.Suppressed, wantSup)
			} else {
				for code, n := range wantSup {
					if res.Suppressed[code] != n {
						t.Errorf("suppressed[%s]: got %d, want %d", code, res.Suppressed[code], n)
					}
				}
			}
		})
	}
	// Every rule (plus the directive-hygiene pseudo-rule GL000) must have at
	// least one firing snippet, or the corpus has rotted.
	for _, rule := range Rules() {
		if !covered[rule.Code] {
			t.Errorf("no corpus snippet triggers %s", rule.Code)
		}
	}
	if !covered["GL000"] {
		t.Error("no corpus snippet triggers GL000 (malformed directive)")
	}
}

// TestCorpusModule checks the call-graph corpus packages through
// CheckModule — the same entry point cmd/graphlint uses — so the GL009
// certificates, the GL010 hot-path walk and the stale-directive audit all
// run exactly as they do in CI.
func TestCorpusModule(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	mod := loader.modulePath
	cases := []struct {
		name   string
		dir    string
		asPath string
		// wantStale is the expected number of stale //lint:ignore
		// directives the audit surfaces.
		wantStale int
	}{
		// GL009's entry-point selection keys off the module root path.
		{name: "gl009bad", dir: "gl009bad", asPath: "<mod>"},
		{name: "gl009ok", dir: "gl009ok", asPath: "<mod>"},
		{name: "gl010bad", dir: "gl010bad", asPath: "<mod>/internal/gl010bad"},
		{name: "gl010ok", dir: "gl010ok", asPath: "<mod>/internal/gl010ok"},
		{name: "stale", dir: "stale", asPath: "<mod>/internal/stale", wantStale: 1},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			pkg, err := loader.checkDir(dir, strings.ReplaceAll(tc.asPath, "<mod>", mod))
			if err != nil {
				t.Fatalf("loading %s: %v", dir, err)
			}
			res := CheckModule([]*Package{pkg})

			compareWants(t, parseWants(t, dir), diagKeys(res.Diagnostics))
			for _, d := range res.Diagnostics {
				covered[d.Code] = true
			}
			if len(res.Stale) != tc.wantStale {
				t.Errorf("stale directives: got %d (%v), want %d", len(res.Stale), res.Stale, tc.wantStale)
			}

			if tc.name == "gl009bad" {
				assertGL009Paths(t, res.Diagnostics)
			}
		})
	}
	for _, rule := range ModuleRules() {
		if !covered[rule.Code] {
			t.Errorf("no corpus snippet triggers %s", rule.Code)
		}
	}
}

// assertGL009Paths pins the structure of the gl009bad certificates: the
// two-hop clock violation must carry its full Partition -> prepare -> stamp
// route, and the interface-dispatch violation must carry a conservative
// edge labelled with the interface it fanned out through.
func assertGL009Paths(t *testing.T, diags []Diagnostic) {
	t.Helper()
	var twoHop, viaIface bool
	for _, d := range diags {
		if d.Code != "GL009" {
			continue
		}
		if len(d.Path) == 3 &&
			strings.HasSuffix(d.Path[0].Func, ".Partition") &&
			strings.HasSuffix(d.Path[1].Func, ".prepare") &&
			strings.HasSuffix(d.Path[2].Func, ".stamp") {
			twoHop = true
		}
		for _, s := range d.Path {
			if strings.HasPrefix(s.Via, "interface ") {
				viaIface = true
			}
		}
	}
	if !twoHop {
		t.Errorf("no GL009 diagnostic carries the Partition -> prepare -> stamp path: %v", diags)
	}
	if !viaIface {
		t.Errorf("no GL009 diagnostic carries a conservative interface edge: %v", diags)
	}
}

// TestModuleClean runs the full module check — per-package rules, the
// call-graph rules over the whole program, and the directive audit — over
// the repository itself: the tree must lint clean, every suppression must
// carry a reason (a reasonless one surfaces as GL000), and no suppression
// may be stale.
func TestModuleClean(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Packages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	res := CheckModule(pkgs)
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d.String())
	}
	for _, d := range res.Stale {
		t.Errorf("stale suppression: %s: %s", d.Pos, d.Message)
	}
}

// TestHotAnnotationsLinked cross-checks every //graphpart:hotpath
// annotation in the module against reality: each must name its AllocsPerRun
// test, and that test must exist as a function in a _test.go file of the
// annotated package — the static claim is only as good as the runtime
// assertion backing it.
func TestHotAnnotationsLinked(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Packages()
	if err != nil {
		t.Fatal(err)
	}
	anns := BuildModule(pkgs).HotAnnotations()
	if len(anns) < 5 {
		t.Fatalf("suspiciously few hotpath annotations in the module: %d", len(anns))
	}
	testFuncs := map[string]string{} // dir -> concatenated _test.go sources
	for _, ha := range anns {
		if ha.Test == "" {
			t.Errorf("%s: hotpath annotation on %s has no test= link", ha.Pos, ha.Func)
			continue
		}
		dir := filepath.Dir(ha.Pos.Filename)
		src, ok := testFuncs[dir]
		if !ok {
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, e := range entries {
				if !strings.HasSuffix(e.Name(), "_test.go") {
					continue
				}
				b, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				sb.Write(b)
			}
			src = sb.String()
			testFuncs[dir] = src
		}
		if !strings.Contains(src, "func "+ha.Test+"(") {
			t.Errorf("%s: hotpath annotation on %s names %s, but no such test exists in %s",
				ha.Pos, ha.Func, ha.Test, dir)
		}
	}
}
