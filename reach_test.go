package vasppower_test

// The shipped-code reachability check: every exported identifier under
// internal/ must be reached from a program root — a command, an
// example, the vasppower façade or the perfbench harness — or be named
// in the allowlist below; so must every exported method of an internal
// interface be called, and every unexported function and method be
// reached from a root or an allowlisted hook. Code that only tests
// reach belongs in a _test.go file, or nowhere. The analysis is standard-library only:
// go/build lists each package's non-test files, go/parser reads them
// and go/types resolves every identifier, with the standard library
// type-checked from source.

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
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyHooks lists the internal exports that no binary reaches but a
// test in another package must import. Nothing else belongs here.
var testOnlyHooks = map[string]string{
	"internal/dft/solver/solveroracle.Run":   "step-by-step executor the solver, workloads and core differential tests compare the prepared engine against",
	"internal/dft/solver/solveroracle.Noise": "the oracle's jitter stream, which the workloads and core differential tests seed identically on both sides",
	"internal/workloads.ActiveSweeps":        "arena-leak detector read by the core, experiments and serve tests",
	"internal/hw/gpu.GPU.PowerLimit":         "cap read-back the node, cluster and root integration tests check the set path against",
	"internal/hw/gpu.GPU.ClockLimit":         "clock-lock read-back the node tests check the set path against",
	"internal/hw/node.Node.IdlePower":        "the node's idle draw, the floor the workloads and cluster tests pin node power against",
	"internal/hw/node.Node.PeripheralPower":  "the peripheral term the workloads and timeseries tests rebuild the node sensor from",
	"internal/timeseries.Trace.Segments":     "segment view the solver, sched and workloads tests compare traces through",
}

func TestShippedCodeReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	prog, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	got := unreached(prog, testOnlyHooks)
	unreachedSet := make(map[string]bool, len(got))
	for _, id := range got {
		unreachedSet[id] = true
		if _, ok := testOnlyHooks[id]; !ok {
			t.Errorf("%s: no binary reaches it; delete it, or move it into a _test.go file if it only pins behaviour", id)
		}
	}
	for id := range testOnlyHooks {
		if !unreachedSet[id] {
			t.Errorf("allowlist entry %s is stale: it is reached or gone", id)
		}
	}
}

// TestReachabilityFixture runs the same analysis over a two-module
// fixture so the check cannot pass vacuously: it must report an export
// only a test uses, an interface method nothing calls and a method that
// shares only its name and signature with a standard-library interface's,
// and must not report a method that satisfies a used interface or an
// identifier only the second module references.
func TestReachabilityFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a fixture against the standard library from source")
	}
	prog, err := loadModules([]module{
		{path: "fixture", dir: "testdata/reach"},
		{path: "fixture/harness", dir: "testdata/reach/harness"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := unreached(prog, nil)
	want := []string{
		"internal/lib.Buffer.Drain",
		"internal/lib.Helper.Unused",
		"internal/lib.OnlyTested",
		"internal/lib.OnlyTestedConst",
		"internal/lib.Queue.Len",
		"internal/lib.Sink.Drain",
		"internal/lib.orphan",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unreached = %q, want %q", got, want)
	}
}

type module struct{ path, dir string }

type pkgInfo struct {
	path  string
	mod   module
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks module packages from their non-test files and
// hands every other import to the standard library's source importer.
type loader struct {
	fset *token.FileSet
	ctxt build.Context
	mods []module
	std  types.Importer
	pkgs map[string]*pkgInfo
}

func (l *loader) Import(path string) (*types.Package, error) {
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return l.std.Import(path)
	}
	return p.types, nil
}

// load returns the module package at path, or nil for a path outside
// every module.
func (l *loader) load(path string) (*pkgInfo, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	mod, ok := l.owner(path)
	if !ok {
		return nil, nil
	}
	dir := filepath.Join(mod.dir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, mod.path), "/")))
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p := &pkgInfo{path: path, mod: mod, info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.pkgs[path] = p
	return p, nil
}

// owner returns the module with the longest path that prefixes path.
func (l *loader) owner(path string) (module, bool) {
	var best module
	found := false
	for _, m := range l.mods {
		if (path == m.path || strings.HasPrefix(path, m.path+"/")) && len(m.path) >= len(best.path) {
			best, found = m, true
		}
	}
	return best, found
}

// packagePaths lists the import path of every package in mod, skipping
// testdata, hidden directories and nested modules.
func packagePaths(ctxt *build.Context, mod module) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(mod.dir, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != mod.dir {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if _, err := ctxt.ImportDir(dir, 0); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(mod.dir, dir)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, mod.path)
		} else {
			paths = append(paths, mod.path+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	return paths, err
}

func isInternal(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if elem == "internal" {
			return true
		}
	}
	return false
}

// isRoot reports whether every declaration of p is a root: p is a
// command or sits outside internal/.
func isRoot(p *pkgInfo) bool {
	return p.types.Name() == "main" || !isInternal(p.path)
}

// program is every package of a set of modules, type-checked.
type program struct {
	*loader
	pkgs []*pkgInfo
}

// loadRepo loads the module and the perfbench harness once for every
// check that reads them.
var loadRepo = sync.OnceValues(func() (*program, error) {
	return loadModules([]module{
		{path: "vasppower", dir: "."},
		{path: "vasppower/perfbench", dir: "perfbench"},
	})
})

// loadModules type-checks every package of mods from its non-test
// files.
func loadModules(mods []module) (*program, error) {
	ctxt := build.Default
	// Without cgo the standard library type-checks from pure-Go files,
	// with no C toolchain and no cgo subprocess. The source importer
	// reads build.Default, so it is switched for the analysis too.
	ctxt.CgoEnabled = false
	saved := build.Default
	build.Default = ctxt
	defer func() { build.Default = saved }()

	fset := token.NewFileSet()
	l := &loader{fset: fset, ctxt: ctxt, mods: mods, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*pkgInfo{}}
	prog := &program{loader: l}
	for _, mod := range mods {
		paths, err := packagePaths(&ctxt, mod)
		if err != nil {
			return nil, err
		}
		for _, path := range paths {
			p, err := l.load(path)
			if err != nil {
				return nil, err
			}
			prog.pkgs = append(prog.pkgs, p)
		}
	}
	return prog, nil
}

// decl is one package-level declaration: the nodes whose identifiers
// it references, and the package whose Info resolves them.
type decl struct {
	pkg   *pkgInfo
	nodes []ast.Node
}

// unreached type-checks every package of mods and returns, sorted, each
// exported package-level identifier and exported method declared under
// an internal/ directory of the first module that no root reaches, each
// exported method of a reached internal interface that no reached code
// calls, and each unexported function and method there that neither a
// root nor one of hooks (names as reported) reaches. The roots are
// every declaration in a command or in a package outside internal/,
// and the init functions and blank variables of every package.
func unreached(prog *program, hooks map[string]string) []string {
	l, all, mods := prog.loader, prog.pkgs, prog.mods

	decls := map[types.Object]*decl{}
	var roots []types.Object
	type ifaceMethod struct {
		m, iface types.Object
		pkg      *pkgInfo
	}
	var ifaceMethods []ifaceMethod // methods declared in named interfaces
	for _, p := range all {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					decls[obj] = &decl{pkg: p, nodes: []ast.Node{d}}
					if d.Recv == nil && d.Name.Name == "init" || isRoot(p) {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					var last *ast.ValueSpec // carries an implicit const repetition
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name]
							decls[obj] = &decl{pkg: p, nodes: []ast.Node{s}}
							if isRoot(p) {
								roots = append(roots, obj)
							}
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, f := range it.Methods.List {
									for _, name := range f.Names {
										ifaceMethods = append(ifaceMethods, ifaceMethod{p.info.Defs[name], obj, p})
									}
								}
							}
						case *ast.ValueSpec:
							nodes := []ast.Node{s}
							if len(s.Values) > 0 || s.Type != nil {
								last = s
							} else if last != nil {
								nodes = append(nodes, last)
							}
							for _, name := range s.Names {
								obj := p.info.Defs[name]
								if obj == nil {
									continue
								}
								decls[obj] = &decl{pkg: p, nodes: nodes}
								if name.Name == "_" || isRoot(p) {
									roots = append(roots, obj)
								}
							}
						}
					}
				}
			}
		}
	}

	// The interfaces a dynamic call may dispatch through, by the name of
	// the method it calls: every method of error and of each non-generic
	// interface the standard library declares, and every interface
	// method reached code calls.
	ifaces := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seenStd := map[*types.Package]bool{}
	var walkStd func(*types.Package)
	walkStd = func(tp *types.Package) {
		if seenStd[tp] {
			return
		}
		seenStd[tp] = true
		if _, inModule := l.owner(tp.Path()); !inModule {
			scope := tp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
						if it, ok := n.Underlying().(*types.Interface); ok {
							addIface(it)
						}
					}
				}
			}
		}
		for _, imp := range tp.Imports() {
			walkStd(imp)
		}
	}
	for _, p := range all {
		walkStd(p.types)
	}

	reached := map[types.Object]bool{}
	var named []*types.Named
	queue := append([]types.Object(nil), roots...)
	calledIface := map[types.Object]bool{}
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && !calledIface[obj] {
				calledIface[obj] = true
				ifaces[o.Name()] = append(ifaces[o.Name()], recv.Type().Underlying().(*types.Interface))
			}
		case *types.Var:
			obj = o.Origin()
		}
		if _, ok := decls[obj]; ok && !reached[obj] {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	for _, obj := range roots {
		reached[obj] = true
	}
	// satisfies reports whether m, a method of n, is reached through an
	// interface: n is not generic and implements, whole, an interface
	// whose method m a dynamic call may dispatch to.
	satisfies := func(n *types.Named, m *types.Func) bool {
		if n.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces[m.Name()] {
			if types.Implements(types.NewPointer(n), it) {
				return true
			}
		}
		return false
	}
	var propagate func()
	propagate = func() {
		for len(queue) > 0 {
			obj := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			d := decls[obj]
			if tn, ok := obj.(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok {
					named = append(named, n)
				}
			}
			if c, ok := obj.(*types.Const); ok {
				if n, ok := c.Type().(*types.Named); ok {
					mark(n.Obj())
				}
			}
			for _, node := range d.nodes {
				ast.Inspect(node, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if o := d.pkg.info.Uses[id]; o != nil {
							mark(o)
						}
					}
					return true
				})
			}
		}
		for _, n := range named {
			ms := types.NewMethodSet(types.NewPointer(n))
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj().(*types.Func)
				if !reached[m.Origin()] && satisfies(n, m) {
					mark(m)
				}
			}
		}
		if len(queue) > 0 {
			propagate()
		}
	}
	propagate()

	main := mods[0]
	nameOf := func(obj types.Object, d *decl) string {
		name := obj.Name()
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				name = t.(*types.Named).Obj().Name() + "." + name
			}
		}
		return strings.TrimPrefix(d.pkg.path, main.path+"/") + "." + name
	}
	// Exports are judged from the program roots alone. The test hooks
	// then join the roots, so a function only a hook calls is not
	// reported: the hook already is, or is allowlisted.
	fromRoots, calledFromRoots := maps.Clone(reached), maps.Clone(calledIface)
	for obj, d := range decls {
		if _, ok := hooks[nameOf(obj, d)]; ok {
			mark(obj)
		}
	}
	propagate()

	var out []string
	for obj, d := range decls {
		if d.pkg.mod != main || !isInternal(d.pkg.path) {
			continue
		}
		_, isFunc := obj.(*types.Func)
		if obj.Exported() && !fromRoots[obj] || !obj.Exported() && isFunc && !reached[obj] {
			out = append(out, nameOf(obj, d))
		}
	}
	// An interface method no reached code calls is a requirement no
	// binary needs, even when the interface itself is reached.
	for _, im := range ifaceMethods {
		if fromRoots[im.iface] && !calledFromRoots[im.m] && im.pkg.mod == main && isInternal(im.pkg.path) && im.m.Exported() {
			out = append(out, strings.TrimPrefix(im.pkg.path, main.path+"/")+"."+im.iface.Name()+"."+im.m.Name())
		}
	}
	sort.Strings(out)
	return out
}
