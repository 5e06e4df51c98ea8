package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// FuncFact is the modular lock summary of one function: every level it
// may blockingly acquire, directly or through static callees, and
// whether it may block on a condition variable. Summaries are
// transitively closed, so an importer only ever needs the facts of its
// direct imports.
type FuncFact struct {
	Acquires []string
	Waits    bool
}

// PackageFacts is what one analyzed package exports to its importers:
// the declared levels of its annotated lock fields and the lock
// summaries of its functions. LoadResult.Run carries them in memory
// from each package to the packages checked after it.
type PackageFacts struct {
	// Fields maps "TypeName.FieldName" to the field's declared level.
	Fields map[string]string
	// Funcs maps "RecvType.Name" / "Name" to the function's summary.
	Funcs map[string]FuncFact
	// Completions holds the func keys annotated //uvm:completion.
	Completions []string
}

// ComputeFacts builds t's exported facts: annotation levels straight
// from the directives, and function summaries by a fixpoint over the
// package-local static call graph seeded with direct acquisitions and
// imported summaries.
func ComputeFacts(t *Target, dirs *Directives) *PackageFacts {
	facts := &PackageFacts{
		Fields: make(map[string]string),
		Funcs:  make(map[string]FuncFact),
	}
	for key, fl := range dirs.FieldLevels {
		facts.Fields[key] = fl.Level
	}
	for key := range dirs.Completions {
		facts.Completions = append(facts.Completions, key)
	}
	sort.Strings(facts.Completions)

	res := &resolver{
		info:  t.TypesInfo,
		pkg:   t.Pkg,
		dirs:  dirs,
		facts: t.Facts,
	}

	// Seed: per-function direct acquisitions + resolved cross-package
	// callee summaries + unresolved same-package callee keys.
	type seed struct {
		acquires map[string]bool
		waits    bool
		callees  map[string]bool // same-package callee keys
	}
	seeds := make(map[string]*seed)
	for _, f := range t.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			s := &seed{acquires: make(map[string]bool), callees: make(map[string]bool)}
			// A blocking Lock preceded (in source order) by an Unlock of
			// the same lock expression is a re-acquisition of a lock the
			// caller handed in — the drop-and-reacquire hand-off of the
			// *Locked helpers (waitObjPageIdle, FS.recycleLocked). It is
			// not a new acquired-while-held edge for callers, so it stays
			// out of the summary.
			released := make(map[string]bool)
			inspectNoFuncLit(fd.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				if site, ok := res.lockCall(call); ok {
					switch site.method {
					case "Lock", "RLock":
						if site.level != "" && !released[site.expr] {
							s.acquires[site.level] = true
						}
					case "Unlock", "RUnlock":
						released[site.expr] = true
					case "Wait":
						if site.recvType == "Cond" {
							s.waits = true
						}
					}
					return
				}
				pkgPath, key, ok := res.calleeKey(call)
				if !ok {
					return
				}
				if pkgPath == t.Pkg.Path() {
					s.callees[key] = true
				} else if imp := t.Facts(pkgPath); imp != nil {
					if ff, ok := imp.Funcs[key]; ok {
						for _, l := range ff.Acquires {
							s.acquires[l] = true
						}
						s.waits = s.waits || ff.Waits
					}
				}
			})
			seeds[funcDeclKey(fd)] = s
		}
	}

	// Fixpoint: propagate same-package callee summaries until stable.
	for changed := true; changed; {
		changed = false
		for _, s := range seeds {
			for callee := range s.callees {
				cs, ok := seeds[callee]
				if !ok {
					continue
				}
				for l := range cs.acquires {
					if !s.acquires[l] {
						s.acquires[l] = true
						changed = true
					}
				}
				if cs.waits && !s.waits {
					s.waits = true
					changed = true
				}
			}
		}
	}

	for key, s := range seeds {
		levels := make([]string, 0, len(s.acquires))
		for l := range s.acquires {
			levels = append(levels, l)
		}
		sort.Strings(levels)
		facts.Funcs[key] = FuncFact{Acquires: levels, Waits: s.waits}
	}
	return facts
}

// inspectNoFuncLit walks n calling fn on every node, without descending
// into function literals: a closure's acquisitions happen when the
// closure runs, not when its enclosing function does.
func inspectNoFuncLit(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		if node != nil {
			fn(node)
		}
		return true
	})
}

// resolver maps lock-method call sites back to annotated struct fields
// and call sites to function summary keys.
type resolver struct {
	info  *types.Info
	pkg   *types.Package
	dirs  *Directives
	facts func(string) *PackageFacts
}

// lockSite is one classified sync.Mutex / sync.RWMutex / sync.Cond
// method call.
type lockSite struct {
	method   string // Lock, RLock, TryLock, TryRLock, Unlock, RUnlock, Wait, ...
	recvType string // Mutex, RWMutex, Cond
	level    string // declared level of the receiver field ("" if unknown)
	fieldKey string // "TypeName.FieldName" ("" if not a struct field)
	expr     string // printed receiver expression, the lock's identity
}

// blocking reports whether the call is a blocking acquisition.
func (s *lockSite) blocking() bool { return s.method == "Lock" || s.method == "RLock" }

// try reports whether the call is a non-blocking acquisition attempt.
func (s *lockSite) try() bool { return s.method == "TryLock" || s.method == "TryRLock" }

// release reports whether the call releases the lock.
func (s *lockSite) release() bool { return s.method == "Unlock" || s.method == "RUnlock" }

// lockCall classifies call if its callee is a method of sync.Mutex,
// sync.RWMutex or sync.Cond.
func (r *resolver) lockCall(call *ast.CallExpr) (*lockSite, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	s := r.info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return nil, false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil, false
	}
	named, ok := derefNamed(recv.Type())
	if !ok {
		return nil, false
	}
	recvName := named.Obj().Name()
	if recvName != "Mutex" && recvName != "RWMutex" && recvName != "Cond" {
		return nil, false
	}
	site := &lockSite{
		method:   fn.Name(),
		recvType: recvName,
		expr:     types.ExprString(sel.X),
	}

	// Resolve the lock back to a struct field. Two shapes:
	//   x.mu.Lock()  — sel.X is itself a field selector;
	//   x.Lock()     — the mutex is embedded, the field path is in the
	//                  method selection's index chain.
	if idx := s.Index(); len(idx) > 1 {
		if owner, field, ok := fieldChain(s.Recv(), idx[:len(idx)-1]); ok {
			r.fillLevel(site, owner, field)
		}
		return site, true
	}
	if fieldSel, ok := sel.X.(*ast.SelectorExpr); ok {
		if fs := r.info.Selections[fieldSel]; fs != nil && fs.Kind() == types.FieldVal {
			if owner, field, ok := fieldChain(fs.Recv(), fs.Index()); ok {
				r.fillLevel(site, owner, field)
			}
		}
	}
	return site, true
}

func (r *resolver) fillLevel(site *lockSite, owner *types.Named, field *types.Var) {
	site.fieldKey = owner.Obj().Name() + "." + field.Name()
	ownerPkg := field.Pkg()
	if ownerPkg == nil {
		return
	}
	if ownerPkg == r.pkg {
		if fl, ok := r.dirs.FieldLevels[site.fieldKey]; ok {
			site.level = fl.Level
		}
		return
	}
	if pf := r.facts(ownerPkg.Path()); pf != nil {
		site.level = pf.Fields[site.fieldKey]
	}
}

// calleeKey resolves a statically-dispatched call to (package path,
// summary key). Interface calls and calls through function values are
// not resolvable and report ok=false.
func (r *resolver) calleeKey(call *ast.CallExpr) (pkgPath, key string, ok bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, ok := r.info.Uses[fun].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return "", "", false
		}
		return fn.Pkg().Path(), funcObjKey(fn), true
	case *ast.SelectorExpr:
		if s := r.info.Selections[fun]; s != nil {
			fn, ok := s.Obj().(*types.Func)
			if !ok || fn.Pkg() == nil {
				return "", "", false
			}
			// Interface method: dynamic dispatch, no static summary.
			if isInterfaceRecv(fn) {
				return "", "", false
			}
			return fn.Pkg().Path(), funcObjKey(fn), true
		}
		// Package-qualified call: pkg.Fn(...).
		if fn, ok := r.info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
			if isInterfaceRecv(fn) {
				return "", "", false
			}
			return fn.Pkg().Path(), funcObjKey(fn), true
		}
	}
	return "", "", false
}

func isInterfaceRecv(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	return types.IsInterface(recv.Type())
}

// funcObjKey is the summary key of a *types.Func, matching funcDeclKey.
func funcObjKey(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	if named, ok := derefNamed(recv.Type()); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// fieldChain walks a selection index path through start's struct fields
// and returns the final field together with the named struct type that
// declares it.
func fieldChain(start types.Type, path []int) (*types.Named, *types.Var, bool) {
	cur := start
	var owner *types.Named
	var field *types.Var
	for _, fi := range path {
		named, _ := derefNamed(cur)
		st, ok := derefStruct(cur)
		if !ok || fi >= st.NumFields() {
			return nil, nil, false
		}
		owner, field = named, st.Field(fi)
		cur = field.Type()
	}
	if owner == nil || field == nil {
		return nil, nil, false
	}
	return owner, field, true
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if alias, ok := t.(*types.Alias); ok {
		t = types.Unalias(alias)
	}
	named, ok := t.(*types.Named)
	return named, ok
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}
