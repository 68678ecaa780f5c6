package airindex

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitMethods are method names callers reach through fmt, error, sort,
// container/heap or net/http, never by name.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "ServeHTTP": true,
}

// exportAllowlist names, as package.Func or package.Type.Method, the
// exported functions that no non-test code calls but that must stay.
var exportAllowlist = map[string]string{
	// Oracles: another package's test scores production answers against them.
	"rstar.BulkLoadSTR":           "oracle: packed R-tree behind the fabric window and kNN checks",
	"rstar.Tree.SearchRect":       "oracle: MBR window candidates for the fabric window check",
	"rstar.Tree.KNNSites":         "oracle: exact kNN for the fabric adjacency walk",
	"voronoi.NearestSite":         "oracle: brute-force nearest site for located regions",
	"broadcast.Schedule.BucketAt": "oracle: slot-to-bucket map for the wire client's data reads",
	"stream.Program.Transmit":     "oracle: reference transmitter for the rendered cycle",
	"channel.Channel.Transmit":    "oracle: reference fault channel for the rendered cycle",

	// Test hooks: tests read or drive production state through them.
	"stream.Compiler.FailNext":      "test hook: injects a cut failure",
	"stream.Compiler.Retained":      "test hook: exposes the retained arena",
	"stream.Server.RecoveredPanics": "test hook: counts contained connection panics",
	"obs.AwaitAtLeast":              "test hook: waits for a counter in the live tests",

	// Public facade: importers outside this module call it.
	"airindex.NewFromScopes":     "public API: builds over hand-authored valid scopes (with T-junction repair)",
	"airindex.System.ValidScope": "public API: a data instance's valid scope for client caching",
	"airindex.System.N":          "public API: the number of data instances",
	"airindex.System.Trajectory": "public API: the continuous-query primitive for moving clients",

	// Interface implementations a standard-library caller reaches.
	"main.queryList.Set": "flag.Value: flag.Var's parser calls it",
}

// TestNoUnreachableExports fails when an exported function or method in the
// root package, cmd/ or internal/ has no use outside _test.go files. The
// module and the perfbench harness (its own module) are type-checked and
// every use is resolved to the function or method it names, so methods
// that share a name on different receivers count separately. A method also
// counts as used when a used interface method of the same name is one it
// implements. A use inside the function's own body does not count.
func TestNoUnreachableExports(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp := "airindex"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			imp += "/" + dir
		}
		files[imp] = append(files[imp], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	std := importer.Default()
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		if files[path] == nil {
			return std.Import(path)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files[path], info)
		checked[path] = pkg
		return pkg, err
	}
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	type decl struct {
		fn       *types.Func
		key, pos string
		body     *ast.BlockStmt
	}
	var decls []decl
	for _, path := range paths {
		if _, err := imp(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		dir := strings.TrimPrefix(strings.TrimPrefix(path, "airindex"), "/")
		if !(dir == "" || strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")) || dir == "internal/testutil" {
			continue
		}
		for _, f := range files[path] {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() || fn.Recv != nil && implicitMethods[fn.Name.Name] {
					continue
				}
				key := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil {
					key = f.Name.Name + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, decl{info.Defs[fn.Name].(*types.Func), key, fset.Position(fn.Pos()).String(), fn.Body})
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found; is the test running from the module root?")
	}

	bodies := map[*types.Func]*ast.BlockStmt{}
	for _, d := range decls {
		bodies[d.fn] = d.body
	}
	used := map[*types.Func]bool{}
	var ifaceUses []*types.Func
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if b := bodies[fn]; b != nil && id.Pos() >= b.Pos() && id.Pos() < b.End() {
			continue // the function's own recursive use
		}
		if !used[fn] {
			used[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceUses = append(ifaceUses, fn)
			}
		}
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		for _, im := range ifaceUses {
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if im.Name() == fn.Name() && (types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface)) {
				return true
			}
		}
		return false
	}

	var missing []string
	allowed := map[string]bool{}
	for _, d := range decls {
		reached := used[d.fn] || implements(d.fn)
		if exportAllowlist[d.key] != "" {
			allowed[d.key] = true
			if reached {
				t.Errorf("allowlist entry %s has a caller outside tests: drop it", d.key)
			}
		} else if !reached {
			missing = append(missing, d.pos+": "+d.key)
		}
	}
	for key := range exportAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no exported declaration: drop it", key)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("exported %s has no caller outside tests: delete it, move it into a _test.go file, or allowlist it with a reason", m)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recvType returns the type name of a method receiver, T or *T.
func recvType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
