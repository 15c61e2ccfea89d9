package ipda_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported internal/ functions, types and methods
// that no non-test file calls, each with the reason it stays. Keys are
// "pkg.Name" or "pkg.Type.Method", pkg being the directory under internal/.
var exportAllowlist = map[string]string{
	"linksec.ConnectProbability":           "closed-form oracle: TestRandomPredistConnectRate holds RandomPredist's measured connect rate to it",
	"linksec.ThirdPartyDecryptProbability": "closed-form oracle: TestHoldsRate and TestQCompositeHoldsHarder hold measured Holds rates to it",
	"obs.ParseProm":                        "reference reader: the WriteProm tests parse the exporter's output with it to prove it well-formed",
	"radio.Medium.AddTap":                  "capture point of the planned wire-level eavesdropper; tests in 5 packages observe the air through it",
	"topology.Grid":                        "deterministic lattice fixture used by tests in 7 packages; a _test.go file cannot share it across packages",
	"topology.Network.InRange":             "reference oracle: the adjacency, radio, MAC and tree tests check neighbour rows and receptions against the geometric range test",
}

const modulePath = "github.com/ipda-sim/ipda"

// TestEveryExportHasACaller type-checks every non-test package of the module
// and of bench/ (its own module, nested under the root) and fails on an
// exported internal/ function, type or method that none of them uses, unless
// exportAllowlist says why it stays. Test files do not count as callers: a
// name only tests reach is API surface that nothing needs.
func TestEveryExportHasACaller(t *testing.T) {
	imp := &moduleImporter{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		pkgs: map[string]*types.Package{},
		used: map[types.Object]bool{},
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); path != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		files, err := goFiles(path)
		if err != nil || len(files) == 0 {
			return err
		}
		_, err = imp.Import(importPath(path))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	for _, pkg := range imp.pkgs {
		rel, ok := strings.CutPrefix(pkg.Path(), modulePath+"/internal/")
		if !ok {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			_, isFunc := obj.(*types.Func)
			tn, isType := obj.(*types.TypeName)
			if (isFunc || isType) && obj.Exported() && !imp.isUsed(obj) {
				unused = append(unused, rel+"."+name)
			}
			if !isType {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !imp.isUsed(m) {
					unused = append(unused, rel+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(unused)

	listed := map[string]bool{}
	for _, key := range unused {
		listed[key] = true
		if _, ok := exportAllowlist[key]; !ok {
			t.Errorf("%s: exported but only tests use it; delete it or allowlist it with a reason", key)
		}
	}
	for key, reason := range exportAllowlist {
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("allowlist entry %s gives no reason", key)
		case !listed[key]:
			t.Errorf("allowlist entry %s is stale: the name is gone or has a production caller", key)
		}
	}
}

// moduleImporter type-checks the module's packages from their non-test
// files, once each, and hands the standard library to the compiler's export
// data. Every package shares one FileSet and one object graph, so a use in
// any package resolves to the same types.Object as the declaration.
type moduleImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package
	used map[types.Object]bool
	// ifaceMethods are the interface methods some non-test file calls.
	ifaceMethods []*types.Func
}

func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(dir)
}

func goFiles(dir string) ([]string, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return bp.GoFiles, nil
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, modulePath)
	if !ok || (rel != "" && rel[0] != '/') {
		return m.std.Import(path)
	}
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	dir := "." + rel
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	// A method's receiver names its type without using it.
	receivers := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range info.Uses {
		if !receivers[id] {
			m.markUsed(obj)
		}
	}
	for _, sel := range info.Selections {
		m.markUsed(sel.Obj())
	}
	return pkg, nil
}

// markUsed records a use of obj. A use of a generic function or method
// instance counts for its generic declaration.
func (m *moduleImporter) markUsed(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && !m.used[fn] {
			m.ifaceMethods = append(m.ifaceMethods, fn)
		}
		obj = fn
	}
	m.used[obj] = true
}

// isUsed reports whether a non-test file names obj. A method also counts
// when it satisfies an interface method that is called, and every String
// and Error method counts, since fmt and the errors package call them.
func (m *moduleImporter) isUsed(obj types.Object) bool {
	if m.used[obj] {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	if (fn.Name() == "String" || fn.Name() == "Error") && sig.Params().Len() == 0 &&
		sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
		return true
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, im := range m.ifaceMethods {
		if im.Name() != fn.Name() {
			continue
		}
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}
