package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the suite reads like a standard
// multichecker even though it is self-contained.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the vet style: pos: message [analyzer].
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one type-checked package, its //uvm: directives and the
// facts of its (module-local) imports through the analyzers.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Dirs holds the package's scanned //uvm: directives.
	Dirs *Directives
	// Facts resolves the exported facts of an imported module package
	// (nil for stdlib or unanalyzed imports).
	Facts func(pkgPath string) *PackageFacts
	// OwnFacts is the current package's facts (annotations + function
	// lock summaries), computed by the suite before any analyzer runs.
	OwnFacts *PackageFacts

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a waiver directive of kind
// waiverKind covers that line. Pass an empty waiverKind for findings
// that cannot be waived.
func (p *Pass) Reportf(pos token.Pos, waiverKind string, format string, args ...any) {
	position := p.Fset.Position(pos)
	if waiverKind != "" && p.Dirs.Waived(waiverKind, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suite returns the three analyzers in their canonical order.
func Suite() []*Analyzer {
	return []*Analyzer{
		LockOrderAnalyzer,
		CompletionAnalyzer,
		SimDetAnalyzer,
	}
}

// Target is one loaded, type-checked package ready for analysis.
type Target struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts resolves previously computed facts for imported module
	// packages (nil for a package not checked before this one).
	Facts func(pkgPath string) *PackageFacts
}

// RunSuite scans t's directives, computes its exported facts, runs the
// given analyzers and returns the surviving diagnostics (sorted by
// position) together with the facts for downstream packages. A nil
// analyzers slice runs the full Suite.
func RunSuite(t *Target, analyzers []*Analyzer) ([]Diagnostic, *PackageFacts, error) {
	if analyzers == nil {
		analyzers = Suite()
	}
	dirs := ScanDirectives(t.Fset, t.Files)
	facts := ComputeFacts(t, dirs)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      t.Fset,
			Files:     t.Files,
			Pkg:       t.Pkg,
			TypesInfo: t.TypesInfo,
			Dirs:      dirs,
			Facts:     t.Facts,
			OwnFacts:  facts,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, t.Path, err)
		}
	}
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
		return a.Message < b.Message
	})
	return dedupe(diags), facts, nil
}

// dedupe drops exact repeats (the lockorder walker intentionally visits
// loop bodies twice to catch iteration-carried violations).
func dedupe(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	seen := make(map[Diagnostic]bool, len(diags))
	for _, d := range diags {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}
