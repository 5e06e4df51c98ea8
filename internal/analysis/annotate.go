package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //uvm: annotation grammar (documented in docs/analysis.md):
//
//	//uvm:lock <level>          on a mutex-bearing struct field
//	//uvm:completion            on a completion-callback func/method
//	//uvm:lockorder-ok <why>    waive a lockorder finding on this line
//	//uvm:completion-ok <why>   waive a completioncallback finding
//	//uvm:wallclock <why>       waive a simdet wall-clock finding
//	//uvm:maporder-ok <why>     waive a simdet map-iteration finding
//	//uvm:rand-ok <why>         waive a simdet math/rand finding
//
// Waivers apply to findings on the same source line as the comment, or
// on the line directly below a standalone comment line.

// waiverKinds maps the waiver directive name to itself; used to reject
// unknown //uvm: directives.
var waiverKinds = map[string]bool{
	"lockorder-ok":  true,
	"completion-ok": true,
	"wallclock":     true,
	"maporder-ok":   true,
	"rand-ok":       true,
}

// A fieldLevel is one //uvm:lock annotation.
type fieldLevel struct {
	Level string
	Pos   token.Pos
}

// Directives holds every //uvm: annotation scanned from one package.
type Directives struct {
	// FieldLevels maps "TypeName.FieldName" to its declared lock level.
	FieldLevels map[string]fieldLevel
	// Completions holds the func keys ("Recv.Name" or "Name") of
	// annotated completion entry points.
	Completions map[string]token.Pos
	// waivers maps waiver kind -> filename -> set of covered lines.
	waivers map[string]map[string]map[int]bool
	// Bad records malformed or unknown //uvm: directives.
	Bad []Diagnostic
}

// Waived reports whether a waiver of the given kind covers pos.
func (d *Directives) Waived(kind string, pos token.Position) bool {
	byFile := d.waivers[kind]
	if byFile == nil {
		return false
	}
	lines := byFile[pos.Filename]
	return lines[pos.Line]
}

// ScanDirectives extracts every //uvm: directive from files.
func ScanDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{
		FieldLevels: make(map[string]fieldLevel),
		Completions: make(map[string]token.Pos),
		waivers:     make(map[string]map[string]map[int]bool),
	}
	for _, f := range files {
		d.scanFile(fset, f)
	}
	return d
}

func (d *Directives) scanFile(fset *token.FileSet, f *ast.File) {
	// Waivers: any comment line anywhere in the file. A standalone
	// comment covers itself and the next line; a trailing comment covers
	// its own line.
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			name, _, ok := parseDirective(c.Text)
			if !ok || !waiverKinds[name] {
				continue
			}
			p := fset.Position(c.Pos())
			d.addWaiver(name, p.Filename, p.Line)
			d.addWaiver(name, p.Filename, p.Line+1)
		}
	}

	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if hasDirective(decl.Doc, "completion") {
				d.Completions[funcDeclKey(decl)] = decl.Pos()
			}
		case *ast.GenDecl:
			if decl.Tok != token.TYPE {
				continue
			}
			for _, spec := range decl.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				d.scanStruct(fset, ts.Name.Name, st)
			}
		}
	}
}

func (d *Directives) scanStruct(fset *token.FileSet, typeName string, st *ast.StructType) {
	for _, field := range st.Fields.List {
		level, pos, ok := fieldLockDirective(field)
		if !ok {
			continue
		}
		if !KnownLevel(level) {
			d.Bad = append(d.Bad, Diagnostic{
				Analyzer: "lockorder",
				Pos:      fset.Position(pos),
				Message:  "//uvm:lock names unknown level " + quoteArg(level) + " (see internal/analysis/levels.go)",
			})
			continue
		}
		for _, name := range fieldNames(field) {
			d.FieldLevels[typeName+"."+name] = fieldLevel{Level: level, Pos: pos}
		}
	}
}

// fieldLockDirective extracts a //uvm:lock directive from a struct
// field's doc or trailing comment.
func fieldLockDirective(field *ast.Field) (level string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if name, arg, isDir := parseDirective(c.Text); isDir && name == "lock" {
				return arg, c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// fieldNames returns the declared names of field, synthesising the type
// name for embedded fields (an embedded sync.Mutex is field "Mutex").
func fieldNames(field *ast.Field) []string {
	if len(field.Names) > 0 {
		names := make([]string, len(field.Names))
		for i, n := range field.Names {
			names[i] = n.Name
		}
		return names
	}
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return []string{t.Name}
	case *ast.SelectorExpr:
		return []string{t.Sel.Name}
	}
	return nil
}

func (d *Directives) addWaiver(kind, file string, line int) {
	byFile := d.waivers[kind]
	if byFile == nil {
		byFile = make(map[string]map[int]bool)
		d.waivers[kind] = byFile
	}
	lines := byFile[file]
	if lines == nil {
		lines = make(map[int]bool)
		byFile[file] = lines
	}
	lines[line] = true
}

// parseDirective splits a `//uvm:name arg...` comment into its name and
// argument. The directive must start the comment with no space after
// `//`, mirroring go:build / go:generate.
func parseDirective(text string) (name, arg string, ok bool) {
	const prefix = "//uvm:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, prefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		return rest[:i], strings.TrimSpace(rest[i+1:]), true
	}
	return rest, "", true
}

// hasDirective reports whether cg contains `//uvm:<name>`.
func hasDirective(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if n, _, ok := parseDirective(c.Text); ok && n == name {
			return true
		}
	}
	return false
}

// funcDeclKey is the summary key of a func declaration: "Recv.Name" for
// methods (pointer receivers stripped), plain "Name" otherwise.
func funcDeclKey(decl *ast.FuncDecl) string {
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		t := decl.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		// Strip type parameters on generic receivers.
		if idx, ok := t.(*ast.IndexExpr); ok {
			t = idx.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + decl.Name.Name
		}
	}
	return decl.Name.Name
}

// quoteArg quotes a possibly-empty directive argument for a message.
func quoteArg(s string) string {
	if s == "" {
		return `""`
	}
	return `"` + s + `"`
}
