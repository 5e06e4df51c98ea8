package uvm

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// TestCachedCounterHandlesFeedStats guards the one counter table,
// sim.Stats: every counter is a field whose `name` tag is the name the
// reports, vmstat, bench and tests read. A misspelled or duplicated tag
// would split a counter in two, the layers bumping the field and the
// readers seeing a cell no layer bumps. It checks that no two fields
// share a name, that bumping a field moves its own name and no other,
// and that every counter name the module reads — each sim.Ctr* constant
// and every counter-shaped string literal in internal/, cmd/, examples/
// and bench/, tests included — resolves to a field. A swap round trip
// then checks that the disk and swap layers bump what the reports read.
func TestCachedCounterHandlesFeedStats(t *testing.T) {
	st := sim.NewStats()
	var names []string
	var cells []*sim.Cell
	fields := map[string]*sim.Cell{}
	v := reflect.ValueOf(st).Elem()
	for i := range v.NumField() {
		f := v.Type().Field(i)
		if f.Type != reflect.TypeFor[sim.Cell]() {
			continue
		}
		name := f.Tag.Get("name")
		if _, dup := fields[name]; dup || name == "" {
			t.Errorf("Stats.%s: name %q is empty or already taken", f.Name, name)
		}
		c := v.Field(i).Addr().Interface().(*sim.Cell)
		names, cells = append(names, name), append(cells, c)
		fields[name] = c
	}
	for i, name := range names {
		c := cells[i]
		c.Inc()
		if snap := st.Snapshot(); len(snap) != 1 || snap[name] != 1 || st.Get(name) != 1 {
			t.Errorf("bumping the field named %q moved %v", name, snap)
		}
		c.Add(-1)
	}

	// Names the module reads, and the bench rows that share their
	// prefixes (BENCHMARK.json's per-layer rows and the span names
	// those rows start with).
	shape := regexp.MustCompile(`^(vm|uvm|bsdvm|disk|swap|phys|pmap|vfs)\.[a-z0-9_.]+$`)
	rows := benchRows(t)
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "../.." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			if shape.MatchString(name) && fields[name] == nil && !rows[name] {
				t.Errorf("%s: %q reads like a counter, but no sim.Stats field is named so", fset.Position(lit.Pos()), name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	s, m := bootTest(t, 256)
	defer s.Shutdown()
	before := m.Stats.Snapshot()
	p := newProc(t, s, "swapper")
	const pages = 512 // 2x RAM: the sweep pages itself out, the read-back pages it in
	va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sweepPattern(t, p, va, pages)
	after := m.Stats.Snapshot()
	for _, name := range []string{
		"disk.reads", "disk.pages.read", "disk.writes", "disk.pages.written", "disk.seeks",
		"swap.ios", "vm.pageins", "uvm.anon.pagein", "uvm.pagein.clusters", "uvm.pagein.clustered",
	} {
		if after[name] <= before[name] {
			t.Errorf("stat %q did not move over a swap round trip (%d -> %d)", name, before[name], after[name])
		}
	}
}

// benchRows returns the per-layer row names BENCHMARK.json declares and
// the span name each "<span>.<metric>" row starts with.
func benchRows(t *testing.T) map[string]bool {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, r := range decl.PerLayer {
		rows[r.Name] = true
		if i := strings.LastIndexByte(r.Name, '.'); i > 0 {
			rows[r.Name[:i]] = true
		}
	}
	return rows
}
