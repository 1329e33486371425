package pitract_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPinnedTestsExist keeps the named regression pins from vanishing
// silently. CI runs every test through `go test -race ./...`; what a
// package-level run cannot notice is a pin that was renamed or deleted —
// a `-run '<regex>'` step matching nothing is a success. So the pins are
// a committed list (.github/pinned-tests.txt), and each must still be a
// top-level Test*/Fuzz* function in a _test.go file of its package.
func TestPinnedTestsExist(t *testing.T) {
	const list = ".github/pinned-tests.txt"
	f, err := os.Open(list)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	declared := map[string]map[string]bool{} // package dir → test function names
	pins := 0
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		dir, name, ok := strings.Cut(text, " ")
		if !ok || !(strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz")) {
			t.Errorf("%s:%d: %q is not \"<package dir> <Test|Fuzz function>\"", list, line, text)
			continue
		}
		pins++
		if declared[dir] == nil {
			if declared[dir], err = testFuncs(dir); err != nil {
				t.Fatalf("%s:%d: %v", list, line, err)
			}
		}
		if !declared[dir][name] {
			t.Errorf("%s:%d: pinned test %s is gone from %s (renamed? update the list with it)", list, line, name, dir)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pins == 0 {
		t.Fatalf("%s pins nothing", list)
	}
}

// testFuncs parses dir's _test.go files and returns their top-level
// function names.
func testFuncs(dir string) (map[string]bool, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, file := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range parsed.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
	}
	return names, nil
}
