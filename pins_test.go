package pitract_test

import (
	"bufio"
	"fmt"
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

// ciFuzzLeg matches a CI step that fuzzes one target: its package and the
// target the anchored -fuzz pattern names.
var ciFuzzLeg = regexp.MustCompile(`go test \./(\S+) .*-fuzz '\^(\w+)\$'`)

// TestCIFuzzLegsArePinned closes the gap a fuzz step leaves open: `go test
// -fuzz` whose pattern matches no target prints "no fuzz tests to fuzz" and
// exits 0, so a renamed or deleted target turns its CI leg into a silent
// pass. Every `-fuzz '^X$'` leg of the workflow must name a target pinned
// in .github/pinned-tests.txt, which TestPinnedTestsExist holds to the code.
func TestCIFuzzLegsArePinned(t *testing.T) {
	const workflow, list = ".github/workflows/ci.yml", ".github/pinned-tests.txt"
	ci, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := os.ReadFile(list)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]bool{}
	for _, line := range strings.Split(string(pinned), "\n") {
		pins[strings.TrimSpace(line)] = true
	}
	legs := ciFuzzLeg.FindAllStringSubmatch(string(ci), -1)
	if len(legs) == 0 {
		t.Fatalf("%s has no -fuzz leg this test can read", workflow)
	}
	for _, leg := range legs {
		dir, target := leg[1], leg[2]
		t.Run(dir+"/"+target, func(t *testing.T) {
			if !pins[dir+" "+target] {
				t.Errorf("%s fuzzes %s in ./%s, which %s does not pin (a target that is gone would fuzz nothing and pass)", workflow, target, dir, list)
			}
		})
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

// exportedDecls maps each exported top-level func, type, var and const
// of f to the node that declares it: the FuncDecl, TypeSpec or ValueSpec.
func exportedDecls(f *ast.File) map[string]ast.Node {
	decls := map[string]ast.Node{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				decls[d.Name.Name] = d
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						decls[s.Name.Name] = s
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							decls[name.Name] = s
						}
					}
				}
			}
		}
	}
	return decls
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

	exported := exportedDecls(parse("pitract.go"))

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
			if exported[m[1]] == nil {
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

// internalTestSupport are the packages under internal/ that exist for
// tests: everything they export is there for a _test.go file.
var internalTestSupport = []string{"internal/store/faultfs", "internal/graph/reachref"}

// internalNamesWithoutUsers are the exported names under internal/ that
// stay although no non-test file names them, each with its reason.
var internalNamesWithoutUsers = map[string]string{
	"internal/graph.Path": "the path fixture the tests of eight packages build graphs from; " +
		"a copy per package would be more code, and graph's tests cannot import a helper package that imports graph",
	"internal/schemes.EdgeDeleteDelta": "the delete half of the edge-delta encoding DecodeEdgeDelta reads, beside EdgeDelta; " +
		"the delete tests of schemes, shard and server build their deltas with it, and only PATCH clients send one",
	"internal/store.EncodeManifest": "DecodeManifest's inverse for a manifest already in memory; " +
		"the tests of store, shard and server write dataset files with it, while serving streams members through encodeManifest",
}

// TestInternalNamesHaveUsers holds internal/ to TestFacadeNamesHaveUsers's
// rule: each exported top-level func, type, var and const declared in a
// non-test file under internal/ must be named by a non-test Go file of the
// module or of bench/ — selected as pkg.Name by an importer, or as a bare
// identifier in its own package outside its own declaration (a method's
// receiver is not a use of its type). A name that only tests call moves
// into their _test.go file, or goes with them.
func TestInternalNamesHaveUsers(t *testing.T) {
	fset := token.NewFileSet()
	type source struct {
		dir  string // slash-separated, relative to the module root
		file *ast.File
	}
	var sources []source
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		parsed, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err == nil {
			sources = append(sources, source{filepath.ToSlash(filepath.Dir(path)), parsed})
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]ast.Node{} // "internal/<pkg>.Name" → its declaration
	packages := map[string][]string{} // package dir → the names it declares
	for _, src := range sources {
		if strings.HasPrefix(src.dir, "internal/") && !slices.Contains(internalTestSupport, src.dir) {
			for name, decl := range exportedDecls(src.file) {
				declared[src.dir+"."+name] = decl
				packages[src.dir] = append(packages[src.dir], src.dir+"."+name)
			}
		}
	}

	used := map[string]bool{}
	for _, src := range sources {
		imported := map[string]string{} // local package name → package dir
		for _, imp := range src.file.Imports {
			dir, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "pitract/")
			if !ok {
				continue
			}
			local := dir[strings.LastIndex(dir, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imported[local] = dir
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
					used[imported[x.Name]+"."+n.Sel.Name] = true
				}
				ast.Inspect(n.X, visit) // not n.Sel: a field or method is not a package name
				return false
			case *ast.FuncDecl: // not n.Name nor n.Recv: a method neither uses its name nor its type
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.Field: // not n.Names: fields and parameters are not uses
				ast.Inspect(n.Type, visit)
				return false
			case *ast.Ident:
				key := src.dir + "." + n.Name
				if decl := declared[key]; decl != nil && (n.Pos() < decl.Pos() || n.Pos() >= decl.End()) {
					used[key] = true
				}
			}
			return true
		}
		ast.Inspect(src.file, visit)
	}

	for name, reason := range internalNamesWithoutUsers {
		if declared[name] == nil || used[name] || reason == "" {
			t.Errorf("allowlisted %s is gone, has a user or has no reason: drop it from internalNamesWithoutUsers", name)
		}
	}
	// One subtest a package, so a failure names the package the name is in.
	for _, dir := range slices.Sorted(maps.Keys(packages)) {
		t.Run(dir, func(t *testing.T) {
			var unused []string
			slices.Sort(packages[dir])
			for _, name := range packages[dir] {
				if !used[name] && internalNamesWithoutUsers[name] == "" {
					unused = append(unused, fmt.Sprintf("%s (%s)", name, fset.Position(declared[name].Pos())))
				}
			}
			if len(unused) > 0 {
				t.Errorf("%d exported names are named by no non-test file (unexport them, move them into the _test.go that uses them, or delete them):\n  %s",
					len(unused), strings.Join(unused, "\n  "))
			}
		})
	}
}
