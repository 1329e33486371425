package pitract_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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

// docFacadeMention matches a `pitract.X` citation in prose.
var docFacadeMention = regexp.MustCompile(`\bpitract\.([A-Z][A-Za-z0-9_]*)`)

// TestFacadeNamesHaveUsers holds pitract.go to the names somebody uses.
// Everything else lives under internal/, so each exported name here is a
// promise; the rule for keeping one is mechanical: a file outside
// internal/, bench/ and pitract.go itself names it — a pitract.X selector
// in cmd/, examples/ or a root `package pitract_test` file, a bare
// identifier in a root `package pitract` test file, or a pitract.X mention
// in README.md or docs/*.md. The facade can therefore only grow together
// with something that uses the new name. Two directions ride along: every
// pitract.X the documents cite must exist, and nothing under cmd/ or
// examples/ may import pitract/internal/… (the facade has to be enough).
func TestFacadeNamesHaveUsers(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(file string) *ast.File {
		parsed, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return parsed
	}

	exported := map[string]bool{}
	for _, decl := range parse("pitract.go").Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported[s.Name.Name] = true
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							exported[name.Name] = true
						}
					}
				}
			}
		}
	}

	var clients []string // Go files outside internal/, bench/ and pitract.go
	rootTests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	clients = append(clients, rootTests...)
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				clients = append(clients, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	used := map[string]bool{}
	for _, file := range clients {
		parsed := parse(file)
		inRoot := filepath.Dir(file) == "."
		for _, imp := range parsed.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); !inRoot && strings.HasPrefix(path, "pitract/internal/") {
				t.Errorf("%s imports %s: cmd/ and examples/ are written against the facade alone", file, path)
			}
		}
		inPackage := parsed.Name.Name == "pitract" // an internal test file names the facade bare
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "pitract" {
					used[n.Sel.Name] = true
				}
				ast.Inspect(n.X, visit) // not n.Sel: a field or method is not a facade name
				return false
			case *ast.Ident:
				if inPackage {
					used[n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(parsed, visit)
	}

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append(docs, "README.md") {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docFacadeMention.FindAllStringSubmatch(string(text), -1) {
			used[m[1]] = true
			if !exported[m[1]] {
				t.Errorf("%s cites pitract.%s, which pitract.go does not export", doc, m[1])
			}
		}
	}

	unused := slices.DeleteFunc(slices.Sorted(maps.Keys(exported)), func(name string) bool { return used[name] })
	if len(unused) > 0 {
		t.Errorf("pitract.go exports %d names, %d of them named by nothing outside internal/, bench/ and pitract.go (delete them, or land the user in the same change):\n  %s",
			len(exported), len(unused), strings.Join(unused, "\n  "))
	}
}
