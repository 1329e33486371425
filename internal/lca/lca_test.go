package lca

import (
	"math/rand"
	"testing"
)

func randTree(rng *rand.Rand, n int) []int {
	parent := make([]int, n)
	parent[0] = 0
	for v := 1; v < n; v++ {
		parent[v] = rng.Intn(v)
	}
	return parent
}

func TestTreeLCAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(80)
		parent := randTree(rng, n)
		tree, err := NewTree(parent, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for q := 0; q < 200; q++ {
			u, v := rng.Intn(n), rng.Intn(n)
			got, err := tree.LCA(u, v)
			if err != nil {
				t.Fatal(err)
			}
			want := NaiveLCA(parent, u, v)
			if got != want {
				t.Fatalf("trial %d: LCA(%d,%d) = %d, want %d (parent=%v)", trial, u, v, got, want, parent)
			}
		}
	}
}

func TestTreeLCAProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	parent := randTree(rng, 120)
	tree, err := NewTree(parent, 0)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 300; q++ {
		u, v := rng.Intn(120), rng.Intn(120)
		w, _ := tree.LCA(u, v)
		// Symmetry.
		w2, _ := tree.LCA(v, u)
		if w != w2 {
			t.Fatalf("LCA not symmetric: (%d,%d) -> %d vs %d", u, v, w, w2)
		}
		// Idempotence: LCA(u,u) = u.
		self, _ := tree.LCA(u, u)
		if self != u {
			t.Fatalf("LCA(%d,%d) = %d", u, u, self)
		}
		// w is an ancestor of both.
		for _, x := range []int{u, v} {
			cur := x
			for cur != w && parent[cur] != cur {
				cur = parent[cur]
			}
			if cur != w {
				t.Fatalf("LCA(%d,%d)=%d is not an ancestor of %d", u, v, w, x)
			}
		}
		// No deeper common ancestor: depth(w) must equal the naive answer's.
		depth := func(v int) int64 { return tree.depths[tree.first[v]] }
		if depth(w) != depth(NaiveLCA(parent, u, v)) {
			t.Fatalf("depth mismatch for (%d,%d)", u, v)
		}
	}
}

func TestNewTreeValidation(t *testing.T) {
	if _, err := NewTree([]int{0, 1}, 2); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := NewTree([]int{1, 0}, 0); err == nil {
		t.Error("non-self-loop root accepted")
	}
	if _, err := NewTree([]int{0, 1}, 0); err == nil {
		t.Error("forest (two roots) accepted")
	}
	if _, err := NewTree([]int{0, 5}, 0); err == nil {
		t.Error("out-of-range parent accepted")
	}
	tree, err := NewTree([]int{0}, 0)
	if err != nil || tree.Len() != 1 {
		t.Errorf("singleton tree rejected: %v", err)
	}
	if _, err := tree.LCA(0, 1); err == nil {
		t.Error("out-of-range query accepted")
	}
}

func randDAG(rng *rand.Rand, n int, density float64) [][]int {
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				adj[u] = append(adj[u], v) // edges increase: acyclic
			}
		}
	}
	return adj
}

func TestDAGLCAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(30)
		adj := randDAG(rng, n, 0.15)
		d, err := NewDAG(adj)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 60; q++ {
			u, v := rng.Intn(n), rng.Intn(n)
			got, ok, err := d.LCA(u, v)
			if err != nil {
				t.Fatal(err)
			}
			want, wok, err := NaiveDAGLCA(adj, u, v)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wok || (ok && got != want) {
				t.Fatalf("trial %d: LCA(%d,%d) = (%d,%v), want (%d,%v)", trial, u, v, got, ok, want, wok)
			}
		}
	}
}

func TestDAGLCAIsValidLCA(t *testing.T) {
	// Check the defining property directly: the answer is a common
	// ancestor with no common-ancestor descendant.
	rng := rand.New(rand.NewSource(33))
	n := 25
	adj := randDAG(rng, n, 0.2)
	d, err := NewDAG(adj)
	if err != nil {
		t.Fatal(err)
	}
	reach := make([][]bool, n)
	for w := 0; w < n; w++ {
		reach[w] = make([]bool, n)
		reach[w][w] = true
		stack := []int{w}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj[x] {
				if !reach[w][y] {
					reach[w][y] = true
					stack = append(stack, y)
				}
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			w, ok, _ := d.LCA(u, v)
			hasCA := false
			for x := 0; x < n; x++ {
				if reach[x][u] && reach[x][v] {
					hasCA = true
					break
				}
			}
			if ok != hasCA {
				t.Fatalf("(%d,%d): ok=%v but common ancestor existence=%v", u, v, ok, hasCA)
			}
			if !ok {
				continue
			}
			if !reach[w][u] || !reach[w][v] {
				t.Fatalf("(%d,%d): %d is not a common ancestor", u, v, w)
			}
			for x := 0; x < n; x++ {
				if x != w && reach[w][x] && reach[x][u] && reach[x][v] {
					t.Fatalf("(%d,%d): descendant %d of %d is also a common ancestor", u, v, x, w)
				}
			}
		}
	}
}

func TestDAGSharedRoot(t *testing.T) {
	// Diamond: 0→1, 0→2, 1→3, 2→3. LCA(1,2) must be 0; LCA(3,3)=3;
	// LCA(1,3) must be 1 (1 reaches both and has no deeper candidate).
	adj := [][]int{{1, 2}, {3}, {3}, {}}
	d, err := NewDAG(adj)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok, _ := d.LCA(1, 2); !ok || w != 0 {
		t.Errorf("LCA(1,2) = (%d,%v), want (0,true)", w, ok)
	}
	if w, ok, _ := d.LCA(1, 3); !ok || w != 1 {
		t.Errorf("LCA(1,3) = (%d,%v), want (1,true)", w, ok)
	}
}

func TestDAGNoCommonAncestor(t *testing.T) {
	adj := [][]int{{}, {}} // two isolated nodes
	d, err := NewDAG(adj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d.LCA(0, 1); ok {
		t.Error("isolated nodes reported a common ancestor")
	}
}

func TestDAGRejectsCycle(t *testing.T) {
	if _, err := NewDAG([][]int{{1}, {0}}); err == nil {
		t.Error("cycle accepted")
	}
	if _, err := NewDAG([][]int{{5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, _, err := NaiveDAGLCA([][]int{{1}, {0}}, 0, 1); err == nil {
		t.Error("naive accepted cycle")
	}
	if _, _, err := NaiveDAGLCA([][]int{{}}, 0, 5); err == nil {
		t.Error("naive accepted bad query")
	}
	d, _ := NewDAG([][]int{{}})
	if _, _, err := d.LCA(0, 5); err == nil {
		t.Error("bad query accepted")
	}
}
