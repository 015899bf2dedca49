package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// pkg is one non-test package found under the roots.
type pkg struct {
	files []*ast.File
	tpkg  *types.Package // nil until type-checked
	info  *types.Info
}

// loader type-checks the packages under the roots from source, each once,
// so an object seen from any package is the same types.Object. Imports
// from outside the roots (the standard library) go through the source
// importer.
type loader struct {
	fset        *token.FileSet
	pkgs        map[string]*pkg // by import path
	std         types.ImporterFrom
	testImports map[string]bool // import paths some test file imports
}

// checkAPI returns one line per exported internal/ identifier that no
// non-test code under the roots references, and per exported, untagged
// field of an internal/ struct that no non-test code writes outside a
// withDefaults.
func checkAPI(roots []string) ([]string, error) {
	l := &loader{fset: token.NewFileSet(), pkgs: make(map[string]*pkg), testImports: make(map[string]bool)}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	for _, root := range roots {
		if err := walkDirs(root, l.add); err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}
	return l.unused(paths), nil
}

// walkDirs calls fn on root and every directory below it, skipping
// testdata and hidden or underscore-prefixed directories.
func walkDirs(root string, fn func(dir string) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return fs.SkipDir
		}
		return fn(path)
	})
}

// add parses the non-test Go files of dir that build on this platform, and
// notes what its test files import.
func (l *loader) add(dir string) error {
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if err != nil && !errors.As(err, &noGo) {
		return fmt.Errorf("%s: %w", dir, err)
	}
	for _, imp := range append(bp.TestImports, bp.XTestImports...) {
		l.testImports[imp] = true
	}
	ip, err := importPath(dir)
	if err != nil || len(bp.GoFiles) == 0 || l.pkgs[ip] != nil {
		return err
	}
	p := &pkg{}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p.files = append(p.files, f)
	}
	l.pkgs[ip] = p
	return nil
}

// importPath returns dir's import path under the module line of the
// nearest enclosing go.mod.
func importPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; filepath.Dir(d) != d; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
				rel, err := filepath.Rel(d, abs)
				return path.Join(strings.Trim(f[1], `"`), filepath.ToSlash(rel)), err
			}
		}
	}
	return "", fmt.Errorf("%s: no enclosing go.mod names a module", dir)
}

// load type-checks the package at path after its imports.
func (l *loader) load(path string) (*types.Package, error) {
	p := l.pkgs[path]
	if p.tpkg != nil {
		return p.tpkg, nil
	}
	p.info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importerFunc(func(imp, dir string) (*types.Package, error) {
		if l.pkgs[imp] != nil {
			return l.load(imp)
		}
		return l.std.ImportFrom(imp, dir, 0)
	})}
	tpkg, err := conf.Check(path, l.fset, p.files, p.info)
	p.tpkg = tpkg
	return tpkg, err
}

type importerFunc func(path, dir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, "") }
func (f importerFunc) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	return f(path, dir)
}

// internal reports whether the package at path sits under an internal/
// directory, where an exported name serves only this repository.
func internal(path string) bool { return strings.Contains("/"+path+"/", "/internal/") }

// unused runs the two rules over the loaded packages, reporting in path
// order.
func (l *loader) unused(paths []string) []string {
	// A package that tests import and no non-test package does is test
	// support: its exported names serve tests by design.
	imported := make(map[string]bool)
	for _, p := range l.pkgs {
		for _, imp := range p.tpkg.Imports() {
			imported[imp.Path()] = true
		}
	}
	support := func(path string) bool { return l.testImports[path] && !imported[path] }

	used := make(map[types.Object]bool)
	written := make(map[*types.Var]bool)
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if blankAssertion(decl) {
					continue
				}
				own := owners(p.info, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := origin(p.info.Uses[id]); obj != nil && !own[obj] {
							used[obj] = true
						}
					}
					return true
				})
				if fd, ok := decl.(*ast.FuncDecl); !ok || fd.Name.Name != "withDefaults" {
					markWrites(p.info, decl, written)
				}
			}
		}
	}

	ifaces := l.interfaces(support)
	var bad []string
	report := func(obj types.Object, msg string) {
		pos := l.fset.Position(obj.Pos())
		bad = append(bad, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(pos.Filename), pos.Line, msg))
	}
	for _, path := range paths {
		if !internal(path) || support(path) {
			continue
		}
		scope := l.pkgs[path].tpkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				report(obj, qualified(obj)+" is exported but no program uses it")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			nt := tn.Type().(*types.Named)
			for i := 0; i < nt.NumMethods(); i++ {
				if m := nt.Method(i); m.Exported() && !used[m] && !satisfied(m, ifaces) {
					report(m, qualified(m)+" is exported but no program uses it")
				}
			}
			if st, ok := nt.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && st.Tag(i) == "" && !written[f] {
						report(f, qualified(tn)+"."+f.Name()+" is exported but no program sets it")
					}
				}
			}
		}
	}
	return bad
}

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// blankAssertion reports whether decl is `var _ I = T{}` (or a group of
// them): a compile-time interface check, not a use of T or of I.
func blankAssertion(decl ast.Decl) bool {
	gd, ok := decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return false
	}
	for _, spec := range gd.Specs {
		for _, name := range spec.(*ast.ValueSpec).Names {
			if name.Name != "_" {
				return false
			}
		}
	}
	return true
}

// owners returns the objects decl declares, whose mentions inside decl do
// not count as uses: a function calling itself, a type in its own
// definition, a method's receiver type and the method itself.
func owners(info *types.Info, decl ast.Decl) map[types.Object]bool {
	own := make(map[types.Object]bool)
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if fn, ok := info.Defs[d.Name].(*types.Func); ok {
			own[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				own[named(recv.Type()).Obj()] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, name := range s.Names {
					own[info.Defs[name]] = true
				}
			}
		}
	}
	return own
}

// named returns the named type t is or points to.
func named(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// markWrites records in written every field that decl writes: a composite
// literal's key or position, the target of an assignment or ++/--, an
// address taken with &, and the receiver of a pointer method called on a
// field.
func markWrites(info *types.Info, decl ast.Decl, written map[*types.Var]bool) {
	mark := func(e ast.Expr) { markLvalue(info, e, written) }
	ast.Inspect(decl, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			t := info.Types[x].Type
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			for i := 0; ok && i < len(x.Elts); i++ {
				if kv, isKV := x.Elts[i].(*ast.KeyValueExpr); isKV {
					written[info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
				} else {
					written[st.Field(i).Origin()] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				mark(x.Key)
				mark(x.Value)
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				mark(x.X)
			}
		case *ast.SelectorExpr:
			// x.F.M() with a pointer method M takes &x.F.
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal {
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptrOperand := sel.Recv().Underlying().(*types.Pointer)
				if ptrRecv && !ptrOperand {
					mark(x.X)
				}
			}
		}
		return true
	})
}

// markLvalue marks the fields that writing to e modifies: e's own field
// and every field it is reached through by value, stopping at a pointer,
// slice or map indirection.
func markLvalue(info *types.Info, e ast.Expr, written map[*types.Var]bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			if _, ok := info.Types[x.X].Type.Underlying().(*types.Array); !ok {
				return
			}
			e = x.X
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			// Walk the embedded path to the selected field.
			t, direct := sel.Recv(), true
			for _, idx := range sel.Index() {
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t, direct = p.Elem(), false
				}
				f := t.Underlying().(*types.Struct).Field(idx)
				written[f.Origin()] = true
				t = f.Type()
			}
			if !direct {
				return
			}
			e = x.X
		default: // nil too (a range without key or value)
			return
		}
	}
}

// interfaces returns, by method name, every interface with methods that a
// package under the roots other than test support declares or spells out,
// and every exported interface of the packages they import.
func (l *loader) interfaces(support func(path string) bool) map[string][]*types.Interface {
	byName := make(map[string][]*types.Interface)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() {
			for i := 0; i < it.NumMethods(); i++ {
				byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] || support(tp.Path()) {
			return
		}
		seen[tp] = true
		mine := l.pkgs[tp.Path()] != nil
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && (mine || tn.Exported()) {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for path, p := range l.pkgs {
		if support(path) {
			continue
		}
		visit(p.tpkg)
		for e, tv := range p.info.Types {
			if _, ok := e.(*ast.InterfaceType); ok {
				add(tv.Type)
			}
		}
	}
	return byName
}

// satisfied reports whether method m's receiver type satisfies an
// interface carrying m, so that a call through that interface uses it.
func satisfied(m *types.Func, ifaces map[string][]*types.Interface) bool {
	t := named(m.Type().(*types.Signature).Recv().Type())
	for _, it := range ifaces[m.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// qualified names obj as pkg.Name, or pkg.Type.Method for a method.
func qualified(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name += named(recv.Type()).Obj().Name() + "."
		}
	}
	return name + obj.Name()
}
