package pram

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// bitonicSort is Batcher's bitonic sorting network on the machine: O(log² n)
// rounds with n/2 comparators each. It returns the sorted copy of vals,
// padded internally to a power of two with +∞ sentinels. The harness's F2
// note on list membership rests on it: sorting a list — §4(2)'s
// preprocessing — is itself in NC, so the class is NC end-to-end.
func bitonicSort(m *Machine, vals []int64) []int64 {
	n := len(vals)
	if n <= 1 {
		return append([]int64(nil), vals...)
	}
	size := 1
	for size < n {
		size <<= 1
	}
	const inf = int64(^uint64(0) >> 1) // MaxInt64 sentinel
	m.Grow(size)
	copy(m.mem, vals)
	for i := n; i < size; i++ {
		m.Store(i, inf)
	}
	// Standard bitonic network: stages k = 2,4,…,size; passes j = k/2,…,1.
	for k := 2; k <= size; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			kk, jj := k, j
			m.MustStep(size/2, func(c Ctx) {
				// Processor p handles the p-th comparator: recover the
				// element index i with bit jj clear.
				p := c.Proc()
				i := (p/jj)*(jj*2) + p%jj
				l := i ^ jj
				a, b := c.Load(i), c.Load(l)
				ascending := i&kk == 0
				if (a > b) == ascending {
					c.Store(i, b)
					c.Store(l, a)
				}
			})
		}
	}
	return slices.Clone(m.mem[:n])
}

func TestBitonicSortMatchesSequential(t *testing.T) {
	f := func(raw []int32) bool {
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		got := bitonicSort(New(1, withConflictDetection()), vals)
		want := append([]int64(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestBitonicSortDoesNotMutateInput(t *testing.T) {
	vals := []int64{3, 1, 2}
	bitonicSort(New(1), vals)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("input mutated: %v", vals)
	}
}

func TestBitonicSortEdgeCases(t *testing.T) {
	if got := bitonicSort(New(1), nil); len(got) != 0 {
		t.Fatal("empty sort broken")
	}
	if got := bitonicSort(New(1), []int64{7}); len(got) != 1 || got[0] != 7 {
		t.Fatal("singleton sort broken")
	}
	// Non-power-of-two with duplicates and negatives.
	got := bitonicSort(New(1, withConflictDetection()), []int64{5, -1, 5, 0, -1, 3, 2})
	want := []int64{-1, -1, 0, 2, 3, 5, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestBitonicSortRoundsPolylog(t *testing.T) {
	rounds := func(n int) int {
		rng := rand.New(rand.NewSource(int64(n)))
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63()
		}
		m := New(1)
		bitonicSort(m, vals)
		return m.Cost().Rounds
	}
	// The network uses exactly Σ_{k=1..log n} k = log n (log n + 1)/2
	// rounds; for n = 1024 that is 55 — far below n.
	r1024 := rounds(1024)
	if r1024 != 55 {
		t.Fatalf("n=1024 used %d rounds, bitonic network predicts 55", r1024)
	}
	r64 := rounds(64)
	if r64 != 21 {
		t.Fatalf("n=64 used %d rounds, want 21", r64)
	}
}
