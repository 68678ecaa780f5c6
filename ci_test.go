package airindex

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	ciRunFlag  = regexp.MustCompile(`-run[= ]'([^']*)'`)
	ciFuzzFlag = regexp.MustCompile(`-fuzz=(\w+)`)
)

// testFuncs returns the names of the top-level functions in the _test.go
// files of the package directories pkgs (module-relative, as go test takes
// them; "dir/..." includes every package below dir).
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		root, recursive := strings.CutSuffix(pkg, "/...")
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != root && !recursive {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("listing tests of %s: %v", pkg, err)
		}
	}
	return names
}

// TestCIGatesNameTests fails when a CI gate selects nothing: every
// alternative of a `go test -run '...'` pattern in the workflow must match a
// test in the packages that step lists, and every `-fuzz=` target must name
// a fuzz test there. A renamed test would otherwise drop out of its gate
// without a failure.
func TestCIGatesNameTests(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	gates := 0
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		var pkgs []string
		for _, field := range strings.Fields(line) {
			if strings.HasPrefix(field, "./") {
				pkgs = append(pkgs, field)
			}
		}
		var alts []string
		if m := ciRunFlag.FindStringSubmatch(line); m != nil && m[1] != "^$" {
			alts = strings.Split(m[1], "|")
		}
		fuzz := ciFuzzFlag.FindStringSubmatch(line)
		if len(alts) == 0 && fuzz == nil {
			continue
		}
		names := testFuncs(t, pkgs)
		for _, alt := range alts {
			gates++
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml -run alternative %q: %v", alt, err)
				continue
			}
			if !anyMatch(names, re, "") {
				t.Errorf("ci.yml -run alternative %q matches no test in %v", alt, pkgs)
			}
		}
		if fuzz != nil {
			gates++
			if !anyMatch(names, regexp.MustCompile("^"+fuzz[1]+"$"), "Fuzz") {
				t.Errorf("ci.yml -fuzz=%s names no fuzz test in %v", fuzz[1], pkgs)
			}
		}
	}
	if gates == 0 {
		t.Fatal("no -run or -fuzz gates found in ci.yml")
	}
}

func anyMatch(names []string, re *regexp.Regexp, prefix string) bool {
	for _, name := range names {
		if strings.HasPrefix(name, prefix) && re.MatchString(name) {
			return true
		}
	}
	return false
}
