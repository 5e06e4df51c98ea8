package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// SimDetAnalyzer guards sim-clock determinism in the packages that feed
// the paper reports: wall-clock reads (time.Now and friends) are flagged
// unless waived with //uvm:wallclock <reason> (a latency histogram
// times wall clock on purpose), math/rand is flagged unless waived with
// //uvm:rand-ok (workloads must use the seeded sim.RNG), and iterating
// a Go map — whose order is randomised per run — is flagged unless waived with //uvm:maporder-ok, because map order
// leaking into I/O submission or report strings is exactly the class of
// nondeterminism the PR-5 Msync bug shipped.
var SimDetAnalyzer = &Analyzer{
	Name: "simdet",
	Doc:  "no wall clock, math/rand or map-iteration order in report-feeding packages",
	Run:  runSimDet,
}

// wallClockFuncs are the package-level time functions that read or
// schedule against the host's wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

func runSimDet(pass *Pass) error {
	if !pkgInSet(pass.Pkg.Path(), simdetPackages) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "rand-ok",
					"import of %s in a report-feeding package: use the seeded sim.RNG so runs stay reproducible", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := wallClockCall(pass.TypesInfo, n); ok {
					pass.Reportf(n.Pos(), "wallclock",
						"time.%s reads the wall clock in a report-feeding package: use the sim clock (sim.Clock.Now/Since)", name)
				}
			case *ast.RangeStmt:
				if isMapType(pass.TypesInfo.TypeOf(n.X)) {
					pass.Reportf(n.Pos(), "maporder-ok",
						"range over a map in a report-feeding package: iteration order is randomised per run — iterate a sorted snapshot instead")
				}
			}
			return true
		})
	}
	return nil
}

// wallClockCall reports whether call invokes one of the std time
// package's wall-clock functions.
func wallClockCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if info.Selections[sel] != nil {
		return "", false // a method: sim.Clock.Now is fine
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return "", false
	}
	if !wallClockFuncs[fn.Name()] {
		return "", false
	}
	return fn.Name(), true
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
