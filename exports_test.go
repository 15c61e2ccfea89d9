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
	"sync"
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
	"radio.Medium.SetLoss":                 "fading fixture: the radio, MAC and core tests add per-reception loss on top of the collision model through it",
	"topology.Grid":                        "deterministic lattice fixture used by tests in 7 packages; a _test.go file cannot share it across packages",
	"topology.Network.InRange":             "reference oracle: the adjacency, radio, MAC and tree tests check neighbour rows and receptions against the geometric range test",
}

// fieldAllowlist names the internal/ struct fields that no non-test file
// reads, or, for exported fields, sets, each with the reason it stays. Keys
// are "pkg.Type.Field".
var fieldAllowlist = map[string]string{
	"core.Config.Keys":                    "the only way to run the engine over RandomPredist or QComposite rings: the three key-scheme end-to-end tests in core set it, and ROADMAP item 7 (capture under key predistribution) needs it",
	"experiments.Options.FreshWorlds":     "fresh-world reference: the arena byte-identity tests compare reused-arena tables against runs that build every world anew",
	"stream.QueryOutcome.RedContributed":  "delivery filter: the stream value-oracle tests check only firings whose every participant reached both trees",
	"stream.QueryOutcome.BlueContributed": "delivery filter: the stream value-oracle tests check only firings whose every participant reached both trees",
}

const modulePath = "github.com/ipda-sim/ipda"

// TestEveryExportHasACaller fails on an exported internal/ function, type
// or method that no non-test package of the module or of bench/ uses, unless
// exportAllowlist says why it stays. Test files do not count as callers: a
// name only tests reach is API surface that nothing needs.
func TestEveryExportHasACaller(t *testing.T) {
	imp := loadModule(t)
	unused := map[string]string{}
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
				unused[rel+"."+name] = "exported but only tests use it"
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
					unused[rel+"."+name+"."+m.Name()] = "exported but only tests use it"
				}
			}
		}
	}
	checkAllowlist(t, unused, exportAllowlist, "has a production caller")
}

// TestEveryFieldIsUsed fails on a struct field declared under internal/ that
// no non-test package of the module or of bench/ reads, or, for an exported
// field, sets, unless fieldAllowlist says why it stays. Setting is a keyed or
// positional composite literal, an assignment, ++ or --, &x.F, slicing an
// array field, or a pointer-method call through the field. Any other
// selection reads: the target of a plain = or := assignment is not a read,
// nor is a struct field it is stored through, while a pointer it is stored
// through is (x.F op= v, ++ and -- read x.F). A promoted selection reads
// every embedded field on its path; a struct used as a map key or compared
// with == or != reads all its fields; a tagged field counts as read and set.
func TestEveryFieldIsUsed(t *testing.T) {
	imp := loadModule(t)
	unused := map[string]string{}
	for v, key := range imp.fields {
		read, set := imp.fieldRead[v], imp.fieldSet[v] || !v.Exported()
		switch {
		case !read && !set:
			unused[key] = "exported field no non-test code reads or sets"
		case !read:
			unused[key] = "field no non-test code reads"
		case !set:
			unused[key] = "exported field no non-test code sets"
		}
	}
	checkAllowlist(t, unused, fieldAllowlist, "is used")
}

// checkAllowlist fails on every key of found (mapped to what is wrong with
// it) that allow does not list, and on every allow entry that gives no
// reason or names nothing found.
func checkAllowlist(t *testing.T, found, allow map[string]string, fixed string) {
	t.Helper()
	keys := make([]string, 0, len(found))
	for key := range found {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if _, ok := allow[key]; !ok {
			t.Errorf("%s: %s; delete it or allowlist it with a reason", key, found[key])
		}
	}
	for key, reason := range allow {
		switch _, ok := found[key]; {
		case strings.TrimSpace(reason) == "":
			t.Errorf("allowlist entry %s gives no reason", key)
		case !ok:
			t.Errorf("allowlist entry %s is stale: the name is gone or %s", key, fixed)
		}
	}
}

var module struct {
	once sync.Once
	imp  *moduleImporter
	err  error
}

// loadModule type-checks every non-test package of the module and of bench/
// (its own module, nested under the root) once per test binary.
func loadModule(t *testing.T) *moduleImporter {
	module.once.Do(func() {
		imp := &moduleImporter{
			fset:      token.NewFileSet(),
			std:       importer.Default(),
			pkgs:      map[string]*types.Package{},
			used:      map[types.Object]bool{},
			fields:    map[*types.Var]string{},
			fieldRead: map[*types.Var]bool{},
			fieldSet:  map[*types.Var]bool{},
		}
		module.imp = imp
		module.err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
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
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.imp
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
	// fields names every struct field declared under internal/ as
	// "pkg.Type.Field"; fieldRead and fieldSet record the non-test reads
	// and sets of any field.
	fields              map[*types.Var]string
	fieldRead, fieldSet map[*types.Var]bool
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
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
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
	if rel, ok := strings.CutPrefix(path, modulePath+"/internal/"); ok {
		for _, f := range files {
			m.nameFields(rel, f, info)
		}
	}
	for _, f := range files {
		m.noteFieldUses(f, info)
	}
	for _, tv := range info.Types {
		if mt, ok := tv.Type.Underlying().(*types.Map); ok {
			m.readAll(mt.Key())
		}
	}
	return pkg, nil
}

// nameFields records the fields of every struct type f declares, named
// "pkg.Type.Field". A tagged field counts as read and set, since encoders
// reach it by reflection.
func (m *moduleImporter) nameFields(rel string, f *ast.File, info *types.Info) {
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := spec.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			idents := field.Names
			if len(idents) == 0 {
				idents = []*ast.Ident{embeddedName(field.Type)}
			}
			for _, id := range idents {
				v, ok := info.Defs[id].(*types.Var)
				if !ok || id.Name == "_" {
					continue
				}
				m.fields[v] = rel + "." + spec.Name.Name + "." + id.Name
				if field.Tag != nil {
					m.fieldRead[v], m.fieldSet[v] = true, true
				}
			}
		}
		return true
	})
}

// embeddedName returns the identifier an embedded field is named by.
func embeddedName(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.Sel
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// noteFieldUses records the field reads and sets in f.
func (m *moduleImporter) noteFieldUses(f *ast.File, info *types.Info) {
	// stored holds the selections that are assignment targets, which
	// Inspect reaches after their statement.
	stored := map[*ast.SelectorExpr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			plain := stored
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				plain = nil // x.F op= v reads x.F
			}
			for _, lhs := range n.Lhs {
				m.setTarget(lhs, info, plain)
			}
		case *ast.IncDecStmt:
			m.setTarget(n.X, info, nil)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				m.setTarget(n.X, info, nil)
			}
		case *ast.SliceExpr:
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Array); ok {
				m.setTarget(n.X, info, nil)
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				m.readAll(info.TypeOf(n.X))
			}
		case *ast.CompositeLit:
			st, ok := deref(info.TypeOf(n)).Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						m.fieldSet[v.Origin()] = true
					}
				} else {
					m.fieldSet[st.Field(i).Origin()] = true
				}
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil {
				return true
			}
			// Walk the embedded fields the selection passes through.
			typ, path := sel.Recv(), sel.Index()
			var embedded []*types.Var
			for _, i := range path[:len(path)-1] {
				v := deref(typ).Underlying().(*types.Struct).Field(i)
				m.fieldRead[v.Origin()] = true
				embedded = append(embedded, v)
				typ = v.Type()
			}
			switch sel.Kind() {
			case types.FieldVal:
				if !stored[n] {
					m.fieldRead[sel.Obj().(*types.Var).Origin()] = true
				}
			case types.MethodVal:
				// A pointer method called on an addressable value sets it,
				// and every value it is embedded in up to a pointer.
				recv := sel.Obj().(*types.Func).Type().(*types.Signature).Recv().Type()
				if _, ptr := recv.(*types.Pointer); !ptr {
					break
				}
				k := len(embedded)
				for ; k > 0; k-- {
					if _, ptr := embedded[k-1].Type().(*types.Pointer); ptr {
						break
					}
					m.fieldSet[embedded[k-1].Origin()] = true
				}
				if _, ptr := info.TypeOf(n.X).(*types.Pointer); k == 0 && !ptr {
					m.setTarget(n.X, info, nil)
				}
			}
		}
		return true
	})
}

// setTarget records that e is stored to. A field of a struct or array value
// is part of that value, so the store sets the enclosing fields too. A
// non-nil stored collects the field selections the store passes through,
// which an assignment stores to without reading.
func (m *moduleImporter) setTarget(e ast.Expr, info *types.Info, stored map[*ast.SelectorExpr]bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			m.fieldSet[sel.Obj().(*types.Var).Origin()] = true
			if stored != nil {
				stored[x] = true
			}
			if _, ptr := info.TypeOf(x.X).(*types.Pointer); ptr {
				return
			}
			e = x.X
		case *ast.IndexExpr:
			if _, ok := info.TypeOf(x.X).Underlying().(*types.Array); !ok {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// readAll records a read of every field of a struct (or array of structs)
// value, as a comparison or a map lookup reads them.
func (m *moduleImporter) readAll(typ types.Type) {
	switch u := typ.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			m.fieldRead[f.Origin()] = true
			m.readAll(f.Type())
		}
	case *types.Array:
		m.readAll(u.Elem())
	}
}

func deref(typ types.Type) types.Type {
	if p, ok := typ.(*types.Pointer); ok {
		return p.Elem()
	}
	return typ
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
