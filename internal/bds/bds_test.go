package bds

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pitract/internal/graph"
)

// referenceSearch is an independent, deliberately simple implementation of
// the paper's prose: visit s, visit its unvisited neighbours in numbering
// order, push them in reverse numbering order, continue from the stack top.
func referenceSearch(g *graph.Graph) []int32 {
	n := g.N()
	visited := make([]bool, n)
	var order []int32
	var stack []int32
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		visited[start] = true
		order = append(order, int32(start))
		cur := int32(start)
		for {
			var fresh []int32
			for _, w := range g.Neighbors(int(cur)) {
				if !visited[w] {
					visited[w] = true
					order = append(order, w)
					fresh = append(fresh, w)
				}
			}
			for i := len(fresh) - 1; i >= 0; i-- {
				stack = append(stack, fresh[i])
			}
			if len(stack) == 0 {
				break
			}
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		}
	}
	return order
}

func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(60)
		g := graph.RandomConnectedUndirected(n, rng.Intn(2*n), int64(trial))
		got, err := Search(g)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceSearch(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: search order %v, want %v", trial, got, want)
		}
	}
}

func TestSearchKnownExample(t *testing.T) {
	// Star around 0 with leaves 1,2,3 and an extra edge 2—4:
	// visit 0, then children 1,2,3 (in numbering order); stack top is 1
	// (pushed in reverse); expanding 1 yields nothing; then 2 visits 4.
	g := graph.New(5, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(2, 4)
	order, err := Search(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestSearchDepthBias(t *testing.T) {
	// The stack continuation makes BDS depth-biased across batches:
	// 0—1, 0—2, 1—3: after visiting {0,1,2}, the search continues at 1
	// (top of stack) and visits 3 before returning to 2's neighbourhood.
	g := graph.New(5, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 4)
	order, err := Search(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	// Contrast: plain BFS from 0 gives the same set but BDS ≠ BFS in
	// general — exercised by the disconnected/chain tests below.
}

func TestSearchDiffersFromBFS(t *testing.T) {
	// 0—1, 0—2, 2—3 but give 1 a deep chain: BDS expands 1's chain before
	// 2's children; BFS would visit 3 earlier.
	g := graph.New(6, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 4)
	g.MustAddEdge(4, 5)
	g.MustAddEdge(2, 3)
	order, err := Search(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2, 4, 5, 3}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	bfsOrder, _ := g.BFS(0)
	if reflect.DeepEqual(order, bfsOrder) {
		t.Fatal("BDS coincided with BFS on a case built to separate them")
	}
}

func TestSearchIsPermutation(t *testing.T) {
	f := func(seed int64, n8, extra8 uint8) bool {
		n := 1 + int(n8)%50
		g := graph.RandomConnectedUndirected(n, int(extra8)%40, seed)
		order, err := Search(g)
		if err != nil {
			return false
		}
		if len(order) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range order {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchDisconnectedRestartsInOrder(t *testing.T) {
	g := graph.New(6, false)
	g.MustAddEdge(4, 5) // component {4,5}
	g.MustAddEdge(1, 2) // component {1,2}
	// 0 and 3 isolated.
	order, err := Search(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2, 3, 4, 5}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestSearchRejectsDirected(t *testing.T) {
	if _, err := Search(graph.Path(3, true)); err == nil {
		t.Fatal("directed graph accepted")
	}
}

func TestAnswerNaiveValidation(t *testing.T) {
	g := graph.Path(3, false)
	for _, q := range [][2]int{{-1, 0}, {0, 3}, {0, 9}} {
		if _, err := AnswerNaive(g, q[0], q[1]); err == nil {
			t.Errorf("out-of-range query %v accepted", q)
		}
	}
	if before, _ := AnswerNaive(g, 1, 1); before {
		t.Error("node visited before itself")
	}
}
