package graph

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(3, true)
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative endpoint accepted")
	}
	if err := g.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
}

func TestNormalizeSortsAndDedups(t *testing.T) {
	g := New(4, true)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 3) // duplicate
	g.MustAddEdge(0, 2)
	got := g.Neighbors(0)
	want := []int32{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors = %v, want %v", got, want)
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
}

func TestUndirectedSymmetry(t *testing.T) {
	g := New(3, false)
	g.MustAddEdge(0, 2)
	if g.Degree(0) != 1 || g.Degree(2) != 1 {
		t.Fatal("undirected edge not mirrored")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	edges := g.Edges()
	if len(edges) != 1 || edges[0] != [2]int{0, 2} {
		t.Fatalf("Edges = %v", edges)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3, true)
	g.MustAddEdge(0, 1)
	c := g.Clone()
	c.MustAddEdge(1, 2)
	if g.M() != 1 || c.M() != 2 {
		t.Fatalf("clone not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for trial := int64(0); trial < 10; trial++ {
			var g *Graph
			if directed {
				g = RandomDirected(30, 80, trial)
			} else {
				g = RandomConnectedUndirected(30, 20, trial)
			}
			back, err := Decode(g.Encode())
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			g.Normalize()
			if !reflect.DeepEqual(g, back.Graph()) {
				t.Fatalf("round trip mismatch (directed=%v trial=%d)", directed, trial)
			}
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	g := RandomDirected(10, 20, 1)
	enc := g.Encode()
	for _, bad := range [][]byte{nil, enc[:1], enc[:len(enc)-1], append(append([]byte{}, enc...), 9)} {
		if _, err := Decode(bad); err == nil {
			t.Errorf("corrupt input of length %d decoded", len(bad))
		}
	}
}

// TestDecodeRejectsHostileCounts: a tiny buffer claiming a huge vertex or
// edge count must error cleanly before allocating, never OOM or hang — the
// serving subsystem feeds Decode attacker-controlled bytes.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	hugeN := binary.AppendUvarint(nil, 1<<40) // 2^40 vertices…
	hugeN = append(hugeN, 1)                  // directed
	hugeN = binary.AppendUvarint(hugeN, 0)    // …0 edges, ~12 bytes total
	if _, err := Decode(hugeN); err == nil {
		t.Fatal("2^40-vertex claim decoded")
	}

	hugeM := binary.AppendUvarint(nil, 4) // 4 vertices
	hugeM = append(hugeM, 1)
	hugeM = binary.AppendUvarint(hugeM, 1<<50) // 2^50 edges in no bytes
	if _, err := Decode(hugeM); err == nil {
		t.Fatal("2^50-edge claim decoded")
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5, false)
	order, dist := g.BFS(0)
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("order = %v", order)
	}
	for i, d := range dist {
		if d != i {
			t.Fatalf("dist[%d] = %d", i, d)
		}
	}
	// Directed path: nothing reaches backwards.
	gd := Path(4, true)
	if gd.Reachable(2, 0) {
		t.Error("directed path reachable backwards")
	}
	if !gd.Reachable(0, 3) {
		t.Error("directed path not reachable forwards")
	}
	if !gd.Reachable(2, 2) {
		t.Error("self reachability broken")
	}
}

func TestClosureMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(40)
		g := RandomDirected(n, 3*n, int64(trial))
		c := NewClosure(g)
		for q := 0; q < 100; q++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if c.Reach(u, v) != g.Reachable(u, v) {
				t.Fatalf("trial %d: closure and BFS disagree on (%d,%d)", trial, u, v)
			}
		}
	}
}

func TestClosurePRAMMatchesBitset(t *testing.T) {
	g := RandomDirected(24, 60, 9)
	mat, machine := ClosurePRAM(g)
	c := NewClosure(g)
	for u := 0; u < 24; u++ {
		for v := 0; v < 24; v++ {
			if mat.At(u, v) != c.Reach(u, v) {
				t.Fatalf("PRAM closure disagrees at (%d,%d)", u, v)
			}
		}
	}
	if machine.Cost().Rounds == 0 {
		t.Fatal("PRAM closure reported zero rounds")
	}
}

// sccRef is a quadratic reference: u,v in one SCC iff mutually reachable —
// by the per-vertex closureRef, since NewClosure is itself built on SCC.
func sccRef(g *Graph) [][]bool {
	n := g.N()
	same := make([][]bool, n)
	reach := closureRef(g)
	for u := 0; u < n; u++ {
		same[u] = make([]bool, n)
		for v := 0; v < n; v++ {
			same[u][v] = reach[u][v] && reach[v][u]
		}
	}
	return same
}

func TestSCCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		g := RandomDirected(n, 2*n, int64(100+trial))
		comp, count := g.SCC()
		same := sccRef(g)
		for u := 0; u < n; u++ {
			if comp[u] < 0 || int(comp[u]) >= count {
				t.Fatalf("component id out of range: %d", comp[u])
			}
			for v := 0; v < n; v++ {
				if (comp[u] == comp[v]) != same[u][v] {
					t.Fatalf("trial %d: SCC disagreement on (%d,%d)", trial, u, v)
				}
			}
		}
	}
}

func TestSCCReverseTopological(t *testing.T) {
	// Tarjan emits components in reverse topological order: for any edge
	// u→v across components, comp[v] < comp[u].
	for trial := 0; trial < 10; trial++ {
		g := RandomDirected(30, 70, int64(trial))
		comp, _ := g.SCC()
		for _, e := range g.Edges() {
			if comp[e[0]] != comp[e[1]] && comp[e[1]] > comp[e[0]] {
				t.Fatalf("edge %v violates reverse topological numbering", e)
			}
		}
	}
}

func TestCondenseIsAcyclicAndPreservesReach(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(30)
		g := RandomDirected(n, 3*n, int64(trial))
		dag, comp := g.Condense()
		// Acyclic: every edge goes to a smaller component id (reverse topo).
		for _, e := range dag.Edges() {
			if e[1] > e[0] {
				t.Fatalf("condensation edge %v is not order-respecting", e)
			}
		}
		// Reachability preserved.
		cg, cd := NewClosure(g), NewClosure(dag)
		for q := 0; q < 50; q++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if cg.Reach(u, v) != cd.Reach(comp[u], comp[v]) {
				t.Fatalf("condensation changed reachability for (%d,%d)", u, v)
			}
		}
	}
}

func TestGeneratorsShape(t *testing.T) {
	g := RandomConnectedUndirected(50, 10, 3)
	_, dist := g.BFS(0)
	for v, d := range dist {
		if d < 0 {
			t.Fatalf("vertex %d unreachable in connected generator", v)
		}
	}
	dag := RandomDAG(40, 100, 3)
	for _, e := range dag.Edges() {
		if e[0] >= e[1] {
			t.Fatalf("DAG edge %v not ascending", e)
		}
	}
	cg := CommunityGraph(4, 10, 5, 3)
	if cg.N() != 40 {
		t.Fatalf("community graph has %d vertices", cg.N())
	}
	comp, _ := cg.SCC()
	// Vertices within one community must be strongly connected (the cycle).
	for i := 1; i < 10; i++ {
		if comp[0] != comp[i] {
			t.Fatalf("community 0 split across SCCs")
		}
	}
	if Path(1, false).M() != 0 {
		t.Error("singleton path has edges")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		a := RandomDirected(20, 40, seed)
		b := RandomDirected(20, 40, seed)
		return reflect.DeepEqual(a.Edges(), b.Edges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencyMatrix(t *testing.T) {
	g := New(3, true)
	g.MustAddEdge(0, 2)
	mat := g.AdjacencyMatrix()
	if !mat.At(0, 2) || mat.At(2, 0) || mat.At(0, 0) {
		t.Fatal("adjacency matrix wrong")
	}
}
