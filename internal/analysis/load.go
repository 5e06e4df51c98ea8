package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The loader type-checks packages with nothing but the standard
// library: module packages are parsed and checked from source (the
// analyzers need syntax for the //uvm: directives), their standard
// library imports are satisfied from the build cache's export data via
// `go list -export` and the stdlib gc importer. loadPackages and
// loadFixture differ only in where they find package sources; both
// order the parsed packages with topoOrder and check them with checkAll.

// LoadResult is a set of type-checked module packages in dependency
// order, pre-wired so that facts computed for earlier packages are
// visible to later ones through Target.Facts.
type LoadResult struct {
	Targets []*Target
	// facts is filled by run as it runs the suite over Targets in
	// order; each Target.Facts reads it.
	facts map[string]*PackageFacts
}

// run runs analyzers (nil for the full Suite) over every target in
// dependency order, threading each package's facts to its importers, and
// returns every diagnostic.
func (r *LoadResult) run(analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, t := range r.Targets {
		diags, facts, err := RunSuite(t, analyzers)
		if err != nil {
			return nil, err
		}
		r.facts[t.Path] = facts
		all = append(all, diags...)
	}
	return all, nil
}

// listedPackage is the slice of `go list -json` output the loader needs,
// plus the package's parsed files.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	Imports    []string

	files []*ast.File
}

const parseMode = parser.ParseComments | parser.SkipObjectResolution

// loadPackages loads patterns (e.g. "./...") from dir. Only the
// packages' GoFiles are loaded: the suite audits production code, and
// tests may freely range maps and read the wall clock.
func loadPackages(dir string, patterns []string) (*LoadResult, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	mod := make(map[string]*listedPackage)
	for _, p := range listed {
		if p.Standard {
			continue
		}
		for _, name := range p.GoFiles {
			path := name
			if !filepath.IsAbs(path) {
				path = filepath.Join(p.Dir, name)
			}
			f, err := parser.ParseFile(fset, path, nil, parseMode)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
			}
			p.files = append(p.files, f)
		}
		mod[p.ImportPath] = p
	}
	order, err := topoOrder(mod)
	if err != nil {
		return nil, err
	}
	return checkAll(fset, order, listed)
}

// loadFixture loads fixture packages from srcRoot/src/<importpath>,
// resolving fixture-to-fixture imports under the same root and
// everything else from the standard library. overlay, if non-nil, may
// rewrite each file's source before parsing (the mutation-verification
// tests strip waiver directives with it).
func loadFixture(srcRoot string, pkgPaths []string, overlay func(filename string, src []byte) []byte) (*LoadResult, error) {
	fset := token.NewFileSet()
	fixtures := make(map[string]*listedPackage)
	var stdNeeded []string
	var parsePkg func(path string) error
	parsePkg = func(path string) error {
		if _, ok := fixtures[path]; ok {
			return nil
		}
		dir := filepath.Join(srcRoot, "src", filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("fixture %s: %v", path, err)
		}
		p := &listedPackage{ImportPath: path}
		fixtures[path] = p
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			full := filepath.Join(dir, e.Name())
			src, err := os.ReadFile(full)
			if err != nil {
				return err
			}
			if overlay != nil {
				src = overlay(full, src)
			}
			f, err := parser.ParseFile(fset, full, src, parseMode)
			if err != nil {
				return fmt.Errorf("fixture %s: %v", path, err)
			}
			p.files = append(p.files, f)
			for _, imp := range f.Imports {
				ipath, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				p.Imports = append(p.Imports, ipath)
				if dirExists(filepath.Join(srcRoot, "src", filepath.FromSlash(ipath))) {
					if err := parsePkg(ipath); err != nil {
						return err
					}
				} else {
					stdNeeded = append(stdNeeded, ipath)
				}
			}
		}
		return nil
	}
	for _, path := range pkgPaths {
		if err := parsePkg(path); err != nil {
			return nil, err
		}
	}
	var std []*listedPackage
	if len(stdNeeded) > 0 {
		var err error
		if std, err = goList("", stdNeeded); err != nil {
			return nil, err
		}
	}
	order, err := topoOrder(fixtures)
	if err != nil {
		return nil, err
	}
	return checkAll(fset, order, std)
}

// goList runs `go list -export -deps -json` over patterns in dir.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,GoFiles,Imports"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			return listed, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		listed = append(listed, p)
	}
}

// checkAll type-checks the parsed packages of order, which topoOrder
// sorted. Each package imports the ones checked before it from source
// and every other package from the standard library export data listed
// in std.
func checkAll(fset *token.FileSet, order, std []*listedPackage) (*LoadResult, error) {
	exports := make(map[string]string)
	for _, p := range std {
		if p.Standard && p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	imp := &mixedImporter{
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}),
		mod: make(map[string]*types.Package),
	}
	res := &LoadResult{facts: make(map[string]*PackageFacts)}
	for _, p := range order {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, p.files, info)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		imp.mod[p.ImportPath] = pkg
		res.Targets = append(res.Targets, &Target{
			Path:      p.ImportPath,
			Fset:      fset,
			Files:     p.files,
			Pkg:       pkg,
			TypesInfo: info,
			Facts:     func(path string) *PackageFacts { return res.facts[path] },
		})
	}
	return res, nil
}

// mixedImporter serves module packages from the already-checked set and
// everything else from the stdlib export data.
type mixedImporter struct {
	std types.Importer
	mod map[string]*types.Package
}

// Import resolves module-local packages from the checked set and
// everything else from the stdlib export data.
func (m *mixedImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.mod[path]; ok {
		return pkg, nil
	}
	return m.std.Import(path)
}

// topoOrder orders pkgs so that every package comes after the ones it
// imports from the same set; imports outside the set are ignored.
func topoOrder(pkgs map[string]*listedPackage) ([]*listedPackage, error) {
	var order []*listedPackage
	state := make(map[string]int) // 0 new, 1 visiting, 2 done
	var visit func(p *listedPackage) error
	visit = func(p *listedPackage) error {
		switch state[p.ImportPath] {
		case 1:
			return fmt.Errorf("import cycle at %s", p.ImportPath)
		case 2:
			return nil
		}
		state[p.ImportPath] = 1
		for _, imp := range p.Imports {
			if dep, ok := pkgs[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p.ImportPath] = 2
		order = append(order, p)
		return nil
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := visit(pkgs[path]); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func dirExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}
