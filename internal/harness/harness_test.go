package harness

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// wantIDs is the one expected list of experiment ids, in presentation
// order: the 23 paper artifacts plus X1/X2 (the PRAM/batch engine). The
// serving stack has no experiment: bench/ measures it.
var wantIDs = strings.Fields("E1 F1 F2 E3 C1 C2 C3 C4 C5 C6 C7 C8 C9 C10 C11 C12 T5 L2 T9 P10 A1 A2 A3 X1 X2")

// TestAllExperimentsRunQuick executes every experiment at Quick scale and
// sanity-checks the produced tables. This is the repository's integration
// test: it exercises every substrate through the framework at once.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(Quick)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl.ID != e.ID {
				t.Fatalf("table id %q, want %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("%s row %d has %d cells for %d columns", e.ID, i, len(row), len(tbl.Columns))
				}
			}
			var buf bytes.Buffer
			tbl.Render(&buf)
			out := buf.String()
			if !strings.Contains(out, e.ID) || !strings.Contains(out, tbl.Columns[0]) {
				t.Fatalf("%s render missing header: %q", e.ID, out[:80])
			}
		})
	}
}

func TestFindExperiment(t *testing.T) {
	if _, ok := Find("E1"); !ok {
		t.Fatal("E1 not found")
	}
	if _, ok := Find("e1"); !ok {
		t.Fatal("case-insensitive lookup broken")
	}
	if _, ok := Find("ZZ"); ok {
		t.Fatal("phantom experiment found")
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	if got, want := strings.Join(ids, " "), strings.Join(wantIDs, " "); got != want {
		t.Fatalf("experiment ids:\n got %s\nwant %s", got, want)
	}
}

// TestHarnessImportsNothingAboveSchemes holds the layering: the harness
// regenerates the paper's tables from the schemes down, and the serving
// stack is measured by bench/ — so no non-test file here may import it.
func TestHarnessImportsNothingAboveSchemes(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			for _, pkg := range []string{"store", "shard", "server", "cache", "obs"} {
				if p := "pitract/internal/" + pkg; path == p || strings.HasPrefix(path, p+"/") {
					t.Errorf("%s imports %s: serving experiments belong in bench/", name, path)
				}
			}
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{ID: "X", Title: "t", Columns: []string{"a", "b"}}
	tbl.AddRow(1.5, "x")
	tbl.AddRow(0.00012, 3)
	tbl.AddRow(1234567.0, true)
	tbl.Note("hello %d", 42)
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"1.50", "0.0001", "1.23e+06", "hello 42", "true"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestScaleSizes(t *testing.T) {
	q, f := []int{1}, []int{2}
	if Quick.sizes(q, f)[0] != 1 || Full.sizes(q, f)[0] != 2 {
		t.Fatal("Scale.sizes broken")
	}
}

func TestTimeOpPositive(t *testing.T) {
	ns := timeOp(10, func() {})
	if ns < 0 {
		t.Fatal("negative duration")
	}
	if timeOp(0, func() {}) < 0 {
		t.Fatal("iters clamp broken")
	}
}
