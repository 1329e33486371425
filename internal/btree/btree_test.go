package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// lookup returns the row ids posted under key (nil when absent).
func (t *Tree) lookup(key int64) []int {
	l, _ := t.findLeaf(key)
	i := sort.Search(len(l.keys), func(i int) bool { return l.keys[i] >= key })
	if i < len(l.keys) && l.keys[i] == key {
		return l.rows[i]
	}
	return nil
}

// sortedKeys returns all distinct keys in ascending order, read along the
// leaf chain.
func (t *Tree) sortedKeys() []int64 {
	out := make([]int64, 0, t.keys)
	l := t.leftmost()
	for ; l != nil; l = l.next {
		out = append(out, l.keys...)
	}
	return out
}

func (t *Tree) leftmost() *leafNode {
	cur := t.root
	for {
		switch n := cur.(type) {
		case *leafNode:
			return n
		case *innerNode:
			cur = n.children[0]
		}
	}
}

func TestNewValidatesOrder(t *testing.T) {
	if _, err := New(2); err == nil {
		t.Error("order 2 accepted")
	}
	tr, err := New(3)
	if err != nil || tr.order != 3 {
		t.Errorf("order 3 rejected: %v", err)
	}
	if NewDefault().order != DefaultOrder {
		t.Error("NewDefault wrong order")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestInsertLookupSmall(t *testing.T) {
	tr := MustNew(4)
	keys := []int64{5, 3, 8, 1, 9, 7, 2, 6, 4, 0}
	for row, k := range keys {
		tr.Insert(k, row)
	}
	if tr.Len() != 10 {
		t.Fatalf("Len=%d, want 10", tr.Len())
	}
	for row, k := range keys {
		got := tr.lookup(k)
		if len(got) != 1 || got[0] != row {
			t.Fatalf("Lookup(%d) = %v, want [%d]", k, got, row)
		}
	}
	if tr.Contains(42) {
		t.Error("phantom key")
	}
	if tr.lookup(42) != nil {
		t.Error("phantom lookup")
	}
}

func TestDuplicateKeysAccumulateRows(t *testing.T) {
	tr := MustNew(4)
	for row := 0; row < 5; row++ {
		tr.Insert(7, row)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len=%d, want 1", tr.Len())
	}
	if rows := tr.lookup(7); len(rows) != 5 {
		t.Fatalf("Lookup(7) = %v", rows)
	}
}

// model-based property test: the tree must agree with a sorted-map model for
// membership and ordered key iteration.
func TestAgainstModelQuick(t *testing.T) {
	f := func(raw []int16, order8 uint8) bool {
		order := MinOrder + int(order8)%62
		tr := MustNew(order)
		model := map[int64][]int{}
		for row, v := range raw {
			k := int64(v)
			tr.Insert(k, row)
			model[k] = append(model[k], row)
		}
		if tr.Len() != len(model) {
			return false
		}
		want := make([]int64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := tr.sortedKeys()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		for k, rows := range model {
			g := tr.lookup(k)
			if len(g) != len(rows) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertionOrderInvariance(t *testing.T) {
	keys := make([]int64, 500)
	for i := range keys {
		keys[i] = int64(i * 3 % 101)
	}
	tr1 := MustNew(8)
	for row, k := range keys {
		tr1.Insert(k, row)
	}
	shuffled := append([]int64(nil), keys...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	tr2 := MustNew(8)
	for row, k := range shuffled {
		tr2.Insert(k, row)
	}
	k1, k2 := tr1.sortedKeys(), tr2.sortedKeys()
	if len(k1) != len(k2) {
		t.Fatalf("key counts differ: %d vs %d", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("key order differs at %d", i)
		}
	}
}

func TestHeightLogarithmic(t *testing.T) {
	for _, order := range []int{4, 16, 64} {
		tr := MustNew(order)
		n := 20000
		for row := 0; row < n; row++ {
			tr.Insert(int64(row), row)
		}
		// Height is at most log_{order/2}(n) + 2.
		bound := int(math.Ceil(math.Log(float64(n))/math.Log(float64(order)/2))) + 2
		if tr.Height() > bound {
			t.Errorf("order %d: height %d exceeds bound %d", order, tr.Height(), bound)
		}
	}
}

func TestProbesLogarithmic(t *testing.T) {
	tr := MustNew(8)
	n := 1 << 15
	for row := 0; row < n; row++ {
		tr.Insert(int64(row), row)
	}
	_, probes := tr.ContainsProbes(int64(n / 2))
	if probes != tr.Height() {
		t.Fatalf("probes %d != height %d", probes, tr.Height())
	}
	if probes > 16 {
		t.Fatalf("probes %d is not logarithmic for n=%d", probes, n)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := NewDefault()
	if tr.Contains(0) || tr.lookup(0) != nil {
		t.Error("empty tree claims membership")
	}
	if got := tr.sortedKeys(); len(got) != 0 {
		t.Errorf("Keys = %v", got)
	}
	if tr.Height() != 1 {
		t.Errorf("Height = %d", tr.Height())
	}
}
