package airindex

import (
	"go/ast"
	"go/parser"
	"go/token"
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
}

// TestNoUnreachableExports fails when an exported function or method in the
// root package, cmd/ or internal/ has no identifier use outside _test.go
// files. Uses are matched by name across the whole module plus the
// perfbench harness (its own module), so a name shared by two methods
// counts for both; a use inside the function's own body does not count.
func TestNoUnreachableExports(t *testing.T) {
	type decl struct{ name, key, pos string }
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
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
		dir := filepath.ToSlash(filepath.Dir(path))
		declares := (dir == "." || strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")) &&
			dir != "internal/testutil"
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				countUses(d, "", uses)
				continue
			}
			if declares && fn.Name.IsExported() && !(fn.Recv != nil && implicitMethods[fn.Name.Name]) {
				key := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil {
					key = f.Name.Name + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, decl{fn.Name.Name, key, fset.Position(fn.Pos()).String()})
			}
			if fn.Body != nil {
				countUses(fn.Body, fn.Name.Name, uses)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found; is the test running from the module root?")
	}
	var missing []string
	allowed := map[string]bool{}
	for _, d := range decls {
		if exportAllowlist[d.key] != "" {
			allowed[d.key] = true
			if uses[d.name] > 0 {
				t.Errorf("allowlist entry %s has a caller outside tests: drop it", d.key)
			}
		} else if uses[d.name] == 0 {
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

// countUses adds every identifier under n to uses, skipping those named
// self (a function's recursive calls of itself).
func countUses(n ast.Node, self string, uses map[string]int) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name != self {
			uses[id.Name]++
		}
		return true
	})
}
