package vc

import (
	"math/rand"
	"testing"

	"pitract/internal/graph"
)

// bruteForce decides a cover of size ≤ k by trying every k-subset of the
// vertices — the exponential oracle Decide is held to, for small graphs.
func bruteForce(g *graph.Graph, k int) bool {
	edges, n := g.Edges(), g.N()
	if len(edges) == 0 || k >= n {
		return true
	}
	if k == 0 {
		return false // edges exist but no budget
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		inSet := make(map[int]bool, k)
		for _, v := range idx {
			inSet[v] = true
		}
		covers := true
		for _, e := range edges {
			if !inSet[e[0]] && !inSet[e[1]] {
				covers = false
				break
			}
		}
		if covers {
			return true
		}
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return false
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// minimumCoverSize is the least k that Decide accepts.
func minimumCoverSize(t *testing.T, g *graph.Graph) int {
	t.Helper()
	for k := 0; ; k++ {
		ok, err := Decide(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return k
		}
	}
}

func TestDecideMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(10)
		g := graph.RandomConnectedUndirected(n, rng.Intn(n), int64(trial))
		for k := 0; k <= n; k++ {
			want := bruteForce(g, k)
			got, err := Decide(g, k)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d n=%d k=%d: Decide=%v BruteForce=%v", trial, n, k, got, want)
			}
		}
	}
}

func TestKnownCovers(t *testing.T) {
	// A triangle needs 2 vertices.
	tri := graph.New(3, false)
	tri.MustAddEdge(0, 1)
	tri.MustAddEdge(1, 2)
	tri.MustAddEdge(0, 2)
	if got := minimumCoverSize(t, tri); got != 2 {
		t.Errorf("triangle cover = %d, want 2", got)
	}
	// A star needs 1 vertex (the hub).
	star := graph.New(6, false)
	for v := 1; v < 6; v++ {
		star.MustAddEdge(0, v)
	}
	if got := minimumCoverSize(t, star); got != 1 {
		t.Errorf("star cover = %d, want 1", got)
	}
	// A path of 5 vertices needs 2.
	if got := minimumCoverSize(t, graph.Path(5, false)); got != 2 {
		t.Errorf("path cover = %d, want 2", got)
	}
	// Edgeless graph needs 0.
	if got := minimumCoverSize(t, graph.New(4, false)); got != 0 {
		t.Errorf("edgeless cover = %d, want 0", got)
	}
}

func TestKernelizeForcesHighDegreeVertices(t *testing.T) {
	// Star with 5 leaves, k=1: the hub has degree > 1 and must be forced.
	star := graph.New(6, false)
	for v := 1; v < 6; v++ {
		star.MustAddEdge(0, v)
	}
	ker, err := Kernelize(star, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ker.Rejected {
		t.Fatal("star with k=1 wrongly rejected")
	}
	if len(ker.Forced) != 1 || ker.Forced[0] != 0 {
		t.Fatalf("Forced = %v, want [0]", ker.Forced)
	}
	if len(ker.Edges) != 0 || ker.Budget != 0 {
		t.Fatalf("kernel not empty: edges=%v budget=%d", ker.Edges, ker.Budget)
	}
}

func TestKernelizeRejectsOverfullKernels(t *testing.T) {
	// A perfect matching of 10 edges: max degree 1, so no vertex is forced
	// for any k ≥ 1; with k=2 the kernel keeps 10 > k² = 4 edges → reject.
	g := graph.New(20, false)
	for i := 0; i < 10; i++ {
		g.MustAddEdge(2*i, 2*i+1)
	}
	ker, err := Kernelize(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ker.Rejected {
		t.Fatal("matching with k=2 not rejected by the edge bound")
	}
	if ok, _ := Decide(g, 2); ok {
		t.Fatal("Decide accepted an instance needing 10 vertices with k=2")
	}
	if ok, _ := Decide(g, 10); !ok {
		t.Fatal("Decide rejected the matching with exactly enough budget")
	}
}

func TestKernelizeBudgetExhaustion(t *testing.T) {
	// k=0 with any edge must reject.
	g := graph.Path(2, false)
	ker, err := Kernelize(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ker.Rejected {
		t.Fatal("k=0 with an edge not rejected")
	}
}

func TestKernelSizeIndependentOfGraphSize(t *testing.T) {
	// The point of §4(9): for fixed k, kernel size is bounded by k², no
	// matter how large the instance grows.
	k := 4
	for _, n := range []int{100, 1000, 5000} {
		g := PlantCover(n, k, 6*n, int64(n))
		ker, err := Kernelize(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if ker.Rejected {
			// A planted instance may still be rejected only if its true
			// cover exceeds k; verify against Decide on the kernel bound.
			ok, _ := Decide(g, k)
			if ok {
				t.Fatalf("n=%d: kernel rejected a yes-instance", n)
			}
			continue
		}
		if len(ker.Edges) > ker.Budget*ker.Budget {
			t.Fatalf("n=%d: kernel has %d edges, bound %d", n, len(ker.Edges), ker.Budget*ker.Budget)
		}
	}
}

func TestPlantedInstancesAreYesInstances(t *testing.T) {
	for _, n := range []int{50, 200} {
		for k := 1; k <= 5; k++ {
			g := PlantCover(n, k, 4*n, int64(n*k))
			ok, err := Decide(g, k)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("planted cover of size %d in n=%d not found", k, n)
			}
		}
	}
}

func TestInputValidation(t *testing.T) {
	d := graph.Path(3, true)
	if _, err := Kernelize(d, 1); err == nil {
		t.Error("directed graph accepted by Kernelize")
	}
	if _, err := Decide(d, 1); err == nil {
		t.Error("directed graph accepted by Decide")
	}
	u := graph.Path(3, false)
	if _, err := Kernelize(u, -1); err == nil {
		t.Error("negative budget accepted by Kernelize")
	}
}
