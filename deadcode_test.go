package repro

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
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// testOnlyKeep lists the symbols under internal/ that may stay with no
// caller but their own package's tests, each mapped to the ROADMAP item
// that will give it one. The list can only shrink: an entry that gains
// a caller, or whose symbol is gone, fails TestNoTestOnlySymbols.
var testOnlyKeep = map[string]string{
	"verify.ParseLTL":                   "One spec, checked continuously: invariant oracle",
	"verify.EvalTrace":                  "One spec, checked continuously: invariant oracle",
	"verify.Counterexamples":            "Design-time verdicts against run-time outcomes: model-guided search",
	"verify.DiagnoseAG":                 "Design-time verdicts against run-time outcomes: model-guided search",
	"dataflow.Store.ResyncPeer":         "One spec, checked continuously: heal-path fixes",
	"orchestrate.Orchestrator.HealHost": "One spec, checked continuously: heal-path fixes",
}

// TestNoTestOnlySymbols fails on any package-level func, type, const or
// var, or method, declared in a non-test file under internal/ that only
// its own package's tests use, or nothing does. A symbol is used if a
// non-test file anywhere in the tree (bench/ included) refers to it, if
// a test file of another package does, or if it implements an interface
// method, directly or promoted through an embedded field.
func TestNoTestOnlySymbols(t *testing.T) {
	unused, problems, err := testOnlySymbols(".", testOnlyKeep)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range unused {
		t.Errorf("%s %s", s.pos, s.name)
	}
	if len(unused) > 0 {
		t.Errorf("%d symbols above are used only by their own package's tests, or by nothing: delete them or give them a caller", len(unused))
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestDeadcodeFixture runs the same checker on testdata/deadcode, a
// tree with one case for each clause of the rule.
func TestDeadcodeFixture(t *testing.T) {
	keep := map[string]string{
		"live.Kept":       "still used only by its own tests: allowed",
		"live.KeptCalled": "has gained a caller: stale",
		"live.Gone":       "no longer exists: stale",
	}
	unused, problems, err := testOnlySymbols("testdata/deadcode", keep)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range unused {
		got = append(got, s.pos+" "+s.name)
	}
	want := []string{"internal/live/live.go:18 live.OwnTestsOnly"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("unused = %q, want %q", got, want)
	}
	want = []string{
		`keep entry live.Gone names no symbol under internal/`,
		`keep entry live.KeptCalled has a caller now: drop it from the keep list`,
	}
	if fmt.Sprint(problems) != fmt.Sprint(want) {
		t.Errorf("problems = %q, want %q", problems, want)
	}
}

// dcSymbol is a declaration the rule applies to.
type dcSymbol struct {
	name       string // pkg.Name or pkg.Type.Method
	pos        string // file:line, relative to the tree's root
	start, end token.Pos
}

// dcUse is one reference to a symbol declared in the tree.
type dcUse struct {
	key   string // import path, then .Name or .Type.Method
	pkg   string // import path of the symbol's package
	pos   token.Pos
	test  bool   // the referring file is a _test.go file
	owner string // import path of the referring package; for an external test, the package it tests
}

type dcPackage struct {
	path, dir            string
	files, tests, xtests []*ast.File
	checked, withTests   *types.Package
	info                 *types.Info
}

type dcLoader struct {
	fset  *token.FileSet
	pkgs  map[string]*dcPackage
	std   types.Importer
	uses  []dcUse
	ifs   []*types.Interface
	named []*types.TypeName
}

// testOnlySymbols applies the rule to the tree at root and returns the
// offenders that keep does not list, in file order, and one problem for
// each keep entry that names nothing or has gained a caller.
func testOnlySymbols(root string, keep map[string]string) ([]dcSymbol, []string, error) {
	l := &dcLoader{fset: token.NewFileSet(), pkgs: map[string]*dcPackage{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := l.parseTree(root); err != nil {
		return nil, nil, err
	}
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.check(l.pkgs[p]); err != nil {
			return nil, nil, err
		}
	}
	for _, p := range paths {
		l.checkTests(l.pkgs[p])
	}

	decls := map[string]dcSymbol{}
	for _, p := range paths {
		pkg := l.pkgs[p]
		if rel, _ := filepath.Rel(root, pkg.dir); strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			for _, f := range pkg.files {
				l.declared(root, pkg, f, decls)
			}
		}
	}
	used := map[string]bool{}
	for _, u := range l.uses {
		if d, ok := decls[u.key]; ok && u.pos >= d.start && u.pos < d.end {
			continue // a symbol's own body does not use it
		}
		if !u.test || u.owner != u.pkg {
			used[u.key] = true
		}
	}
	l.markImplementations(used)

	var unused []dcSymbol
	byName := map[string]string{}
	for key, d := range decls {
		byName[d.name] = key
		if _, kept := keep[d.name]; !used[key] && !kept {
			unused = append(unused, d)
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].start < unused[j].start })
	var problems []string
	for name := range keep {
		if key, ok := byName[name]; !ok {
			problems = append(problems, fmt.Sprintf("keep entry %s names no symbol under internal/", name))
		} else if used[key] {
			problems = append(problems, fmt.Sprintf("keep entry %s has a caller now: drop it from the keep list", name))
		}
	}
	sort.Strings(problems)
	return unused, problems, nil
}

var dcModuleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// parseTree parses every package under root the go tool would build,
// skipping testdata and directories named with a leading . or _. A
// nested go.mod (bench/) starts a module of its own.
func (l *dcLoader) parseTree(root string) error {
	importPath := map[string]string{}
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			m := dcModuleLine.FindSubmatch(mod)
			if m == nil {
				return fmt.Errorf("%s/go.mod: no module line", dir)
			}
			importPath[dir] = string(m[1])
		} else if parent, ok := importPath[filepath.Dir(dir)]; ok {
			importPath[dir] = parent + "/" + d.Name()
		} else {
			return fmt.Errorf("%s: not inside a module", dir)
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		p := &dcPackage{path: importPath[dir], dir: dir}
		for _, set := range []struct {
			names []string
			into  *[]*ast.File
		}{{bp.GoFiles, &p.files}, {bp.TestGoFiles, &p.tests}, {bp.XTestGoFiles, &p.xtests}} {
			for _, name := range set.names {
				f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				*set.into = append(*set.into, f)
			}
		}
		l.pkgs[p.path] = p
		return nil
	})
}

// Import resolves the tree's own packages to their non-test variant and
// everything else from source.
func (l *dcLoader) Import(path string) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil {
		return l.check(p)
	}
	return l.std.Import(path)
}

func dcInfo() *types.Info {
	return &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
}

// check type-checks p's non-test files once and records their uses,
// interfaces and named types.
func (l *dcLoader) check(p *dcPackage) (*types.Package, error) {
	if p.checked != nil {
		return p.checked, nil
	}
	p.info = dcInfo()
	pkg, err := (&types.Config{Importer: l}).Check(p.path, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", p.path, err)
	}
	p.checked = pkg
	l.record(p.info, p.files, false, p.path)
	for _, tv := range p.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			l.ifs = append(l.ifs, it)
		}
	}
	for _, obj := range p.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
				l.named = append(l.named, tn)
			}
		}
	}
	return pkg, nil
}

// checkTests type-checks p with its in-package tests, then its external
// tests against that variant, and records the test files' uses. Errors
// are ignored: a dependency built against p's non-test variant can
// disagree on type identity, which does not change what refers to what.
func (l *dcLoader) checkTests(p *dcPackage) {
	p.withTests = p.checked
	if len(p.tests) > 0 {
		info := dcInfo()
		conf := types.Config{Importer: l, Error: func(error) {}}
		p.withTests, _ = conf.Check(p.path, l.fset, append(append([]*ast.File{}, p.files...), p.tests...), info)
		l.record(info, p.tests, true, p.path)
	}
	if len(p.xtests) > 0 {
		info := dcInfo()
		conf := types.Config{Importer: dcImporter(func(path string) (*types.Package, error) {
			if path == p.path {
				return p.withTests, nil
			}
			return l.Import(path)
		}), Error: func(error) {}}
		conf.Check(p.path+"_test", l.fset, p.xtests, info)
		l.record(info, p.xtests, true, p.path)
	}
}

type dcImporter func(path string) (*types.Package, error)

func (f dcImporter) Import(path string) (*types.Package, error) { return f(path) }

// record keeps the uses, made from files, of symbols declared in the tree.
func (l *dcLoader) record(info *types.Info, files []*ast.File, test bool, owner string) {
	from := map[*token.File]bool{}
	for _, f := range files {
		from[l.fset.File(f.Pos())] = true
	}
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || l.pkgs[obj.Pkg().Path()] == nil || !from[l.fset.File(id.Pos())] {
			continue
		}
		if key := dcKey(obj); key != "" {
			l.uses = append(l.uses, dcUse{key: key, pkg: obj.Pkg().Path(), pos: id.Pos(), test: test, owner: owner})
		}
	}
}

// dcKey names a package-level object or a concrete method by import
// path; it returns "" for anything else (fields, locals, interface
// methods).
func dcKey(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			n, ok := t.(*types.Named)
			if !ok || types.IsInterface(n) {
				return ""
			}
			return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
		}
	case *types.Var:
		if o.IsField() {
			return ""
		}
		obj = o.Origin()
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// declared adds f's package-level declarations and methods to decls.
func (l *dcLoader) declared(root string, p *dcPackage, f *ast.File, decls map[string]dcSymbol) {
	add := func(id *ast.Ident, node ast.Node) {
		obj := p.info.Defs[id]
		if obj == nil || id.Name == "_" || id.Name == "init" {
			return
		}
		key := dcKey(obj)
		if key == "" {
			return
		}
		pos := l.fset.Position(id.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		decls[key] = dcSymbol{
			name:  p.checked.Name() + strings.TrimPrefix(key, p.path),
			pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line),
			start: node.Pos(),
			end:   node.End(),
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			add(d.Name, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, s)
					}
				}
			}
		}
	}
}

// markImplementations marks every method that implements a method of
// an interface the tree refers to, or that a loaded package declares,
// for each non-generic named type of the tree: the method may be
// declared on the type or promoted to it through an embedded field.
func (l *dcLoader) markImplementations(used map[string]bool) {
	ifs := append([]*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}, l.ifs...)
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						ifs = append(ifs, it)
					}
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p.checked)
	}
	byFirst := map[string][]*types.Interface{}
	for _, it := range ifs {
		if it.NumMethods() > 0 && it.IsMethodSet() {
			first := it.Method(0).Name()
			byFirst[first] = append(byFirst[first], it)
		}
	}
	for _, tn := range l.named {
		ptr := types.NewPointer(tn.Type())
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			for _, it := range byFirst[ms.At(i).Obj().Name()] {
				if !types.Implements(ptr, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					m := it.Method(j)
					if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
						used[dcKey(sel.Obj())] = true
					}
				}
			}
		}
	}
}
