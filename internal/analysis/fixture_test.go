package analysis

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFixture loads the named fixture packages from testdata/src, runs
// the given analyzers over each in dependency order (threading facts so
// cross-package summaries work) and returns every diagnostic.
func runFixture(t *testing.T, pkgPaths []string, analyzers []*Analyzer, overlay func(string, []byte) []byte) []Diagnostic {
	t.Helper()
	res, err := loadFixture("testdata", pkgPaths, overlay)
	if err != nil {
		t.Fatalf("load fixture %v: %v", pkgPaths, err)
	}
	diags, err := res.run(analyzers)
	if err != nil {
		t.Fatalf("run suite on %v: %v", pkgPaths, err)
	}
	return diags
}

// expectation is one `// want` comment in a fixture file.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("//\\s*want\\s+`([^`]+)`")

// parseWants scans the fixture packages' sources for `// want `regex“
// comments.
func parseWants(t *testing.T, pkgPaths []string) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgPaths {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(pkg))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("fixture dir %s: %v", dir, err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			full := filepath.Join(dir, e.Name())
			src, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(bytes.NewReader(src))
			for line := 1; sc.Scan(); line++ {
				for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", full, line, m[1], err)
					}
					wants = append(wants, &expectation{file: full, line: line, re: re})
				}
			}
		}
	}
	return wants
}

// checkWants matches diagnostics against the fixtures' want comments:
// every want must be hit, and every diagnostic must be wanted.
func checkWants(t *testing.T, pkgPaths []string, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, pkgPaths)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// stripWaiver returns an overlay that disables one waiver directive
// while keeping every line number intact, so the waived diagnostic
// reappears at a known position.
func stripWaiver(kind string) func(string, []byte) []byte {
	return func(_ string, src []byte) []byte {
		return bytes.ReplaceAll(src, []byte("//uvm:"+kind), []byte("// off:"+kind))
	}
}

// hasDiag reports whether some diagnostic in a file whose path ends in
// fileSuffix contains substr.
func hasDiag(diags []Diagnostic, fileSuffix, substr string) bool {
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, fileSuffix) && strings.Contains(d.Message, substr) {
			return true
		}
	}
	return false
}

func TestLockOrderFixture(t *testing.T) {
	pkgs := []string{"lock/internal/uvm"}
	diags := runFixture(t, pkgs, []*Analyzer{LockOrderAnalyzer}, nil)
	checkWants(t, pkgs, diags)
}

func TestLockOrderMutation(t *testing.T) {
	pkgs := []string{"lock/internal/uvm"}
	diags := runFixture(t, pkgs, []*Analyzer{LockOrderAnalyzer}, stripWaiver("lockorder-ok"))
	if !hasDiag(diags, "lock.go", "acquiring m.mu(map) while holding o.mu(object)") {
		t.Errorf("stripping the lockorder-ok waiver did not resurface the inversion; got %v", diags)
	}
}

func TestCompletionFixture(t *testing.T) {
	pkgs := []string{"comp/internal/uvm"}
	diags := runFixture(t, pkgs, []*Analyzer{CompletionAnalyzer}, nil)
	checkWants(t, pkgs, diags)
}

func TestCompletionMutation(t *testing.T) {
	pkgs := []string{"comp/internal/uvm"}
	diags := runFixture(t, pkgs, []*Analyzer{CompletionAnalyzer}, stripWaiver("completion-ok"))
	if !hasDiag(diags, "comp.go", "reachable from completion callback flight.waivedDone") {
		t.Errorf("stripping the completion-ok waiver did not resurface the finding; got %v", diags)
	}
}

func TestSimDetFixture(t *testing.T) {
	pkgs := []string{"det/internal/uvm"}
	diags := runFixture(t, pkgs, []*Analyzer{SimDetAnalyzer}, nil)
	checkWants(t, pkgs, diags)
}

func TestSimDetMutation(t *testing.T) {
	pkgs := []string{"det/internal/uvm"}
	diags := runFixture(t, pkgs, []*Analyzer{SimDetAnalyzer}, stripWaiver("maporder-ok"))
	if !hasDiag(diags, "det.go", "range over a map") || len(diags) != 5 {
		t.Errorf("stripping the maporder-ok waiver should add exactly one map-range finding; got %v", diags)
	}
}

// TestSuiteCleanOverRealTree is the blocking check of the analyzer
// suite: the full suite must produce zero diagnostics over the module
// itself — every true positive fixed, every accepted exception waived
// with a reason. It also fails if a package some analyzer targets was
// not loaded, so a loader that drops packages cannot pass it by checking
// nothing.
func TestSuiteCleanOverRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	res, err := loadPackages("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	loaded := make(map[string]bool, len(res.Targets))
	for _, tgt := range res.Targets {
		loaded[tgt.Path] = true
	}
	for _, set := range [][]string{lockCorePackages, simdetPackages} {
		for _, pkg := range set {
			if !loaded["uvm/"+pkg] {
				t.Errorf("uvm/%s was not loaded, so the suite never checked it", pkg)
			}
		}
	}
	diags, err := res.run(nil)
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
