package listsearch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIndexAgreesWithScan(t *testing.T) {
	f := func(list []int64, probes []int64) bool {
		idx := NewIndex(list)
		for _, e := range probes {
			if idx.Contains(e) != Scan(list, e) {
				return false
			}
		}
		for _, e := range list { // every member must be found
			if !idx.Contains(e) {
				return false
			}
		}
		return idx.Len() == len(list)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewIndexDoesNotMutateInput(t *testing.T) {
	list := []int64{3, 1, 2}
	NewIndex(list)
	if list[0] != 3 || list[1] != 1 || list[2] != 2 {
		t.Fatalf("input mutated: %v", list)
	}
}

func TestProbesLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1 << 10, 1 << 16, 1 << 20} {
		list := make([]int64, n)
		for i := range list {
			list[i] = rng.Int63()
		}
		idx := NewIndex(list)
		maxProbes := 0
		for q := 0; q < 200; q++ {
			_, p := idx.ContainsProbes(rng.Int63())
			if p > maxProbes {
				maxProbes = p
			}
		}
		bound := 1
		for v := n; v > 0; v >>= 1 {
			bound++
		}
		if maxProbes > bound {
			t.Errorf("n=%d: %d probes exceeds log bound %d", n, maxProbes, bound)
		}
	}
}

func TestEmptyList(t *testing.T) {
	idx := NewIndex(nil)
	if idx.Contains(0) || Scan(nil, 0) {
		t.Fatal("empty list claims membership")
	}
	ok, probes := idx.ContainsProbes(1)
	if ok || probes != 0 {
		t.Fatalf("empty list: ok=%v probes=%d", ok, probes)
	}
}

func TestDuplicatesHandled(t *testing.T) {
	idx := NewIndex([]int64{7, 7, 7, 7})
	if !idx.Contains(7) || idx.Contains(6) {
		t.Fatal("duplicate handling broken")
	}
}
