// Package btree implements an in-memory B⁺-tree over int64 keys.
//
// The tree is the preprocessing structure of the paper's Example 1: build it
// once in PTIME over the selection column, then answer point selection
// queries in O(log |D|) probes instead of scanning. Leaves are chained for
// ordered iteration; every key maps to the list of row ids carrying it, so
// the tree also acts as a secondary index.
//
// The implementation counts node probes per lookup so that the experiment
// harness can demonstrate the logarithmic access path directly, rather than
// inferring it from wall-clock time alone.
package btree

import (
	"fmt"
	"sort"
)

// DefaultOrder is the default maximum number of children per interior node.
const DefaultOrder = 64

// MinOrder is the smallest supported order; below 3 a B-tree degenerates.
const MinOrder = 3

// Tree is a B⁺-tree index from int64 keys to row ids.
//
// The zero value is not usable; construct trees with New.
type Tree struct {
	order  int
	root   node
	height int
	keys   int // number of distinct keys
}

type node interface {
	// insert adds key→row under this subtree. When the node overflows it
	// splits, returning the separator key and the new right sibling.
	// newKey reports whether the key was not previously present.
	insert(key int64, row int, order int) (sep int64, right node, split, newKey bool)
}

// leafNode stores sorted keys with their row-id postings and a next pointer
// forming the leaf chain.
type leafNode struct {
	keys []int64
	rows [][]int
	next *leafNode
}

// innerNode stores separator keys and child pointers;
// children[i] covers keys < keys[i]; children[len(keys)] covers the rest.
type innerNode struct {
	keys     []int64
	children []node
}

// New returns an empty tree of the given order (maximum children per
// interior node). Orders below MinOrder are an error.
func New(order int) (*Tree, error) {
	if order < MinOrder {
		return nil, fmt.Errorf("btree: order %d below minimum %d", order, MinOrder)
	}
	return &Tree{order: order, root: &leafNode{}, height: 1}, nil
}

// MustNew is New that panics on error.
func MustNew(order int) *Tree {
	t, err := New(order)
	if err != nil {
		panic(err)
	}
	return t
}

// NewDefault returns an empty tree with DefaultOrder.
func NewDefault() *Tree { return MustNew(DefaultOrder) }

// Len reports the number of distinct keys.
func (t *Tree) Len() int { return t.keys }

// Height reports the current tree height (1 for a lone leaf).
func (t *Tree) Height() int { return t.height }

// Insert adds a key→row posting.
func (t *Tree) Insert(key int64, row int) {
	sep, right, split, newKey := t.root.insert(key, row, t.order)
	if split {
		t.root = &innerNode{keys: []int64{sep}, children: []node{t.root, right}}
		t.height++
	}
	if newKey {
		t.keys++
	}
}

func (l *leafNode) insert(key int64, row int, order int) (int64, node, bool, bool) {
	i := sort.Search(len(l.keys), func(i int) bool { return l.keys[i] >= key })
	if i < len(l.keys) && l.keys[i] == key {
		l.rows[i] = append(l.rows[i], row)
		return 0, nil, false, false
	}
	l.keys = append(l.keys, 0)
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = key
	l.rows = append(l.rows, nil)
	copy(l.rows[i+1:], l.rows[i:])
	l.rows[i] = []int{row}
	if len(l.keys) < order {
		return 0, nil, false, true
	}
	// Split the leaf in half; the separator is the first key of the right
	// sibling (B⁺-tree convention: separators duplicate leaf keys).
	mid := len(l.keys) / 2
	right := &leafNode{
		keys: append([]int64(nil), l.keys[mid:]...),
		rows: append([][]int(nil), l.rows[mid:]...),
		next: l.next,
	}
	l.keys = l.keys[:mid:mid]
	l.rows = l.rows[:mid:mid]
	l.next = right
	return right.keys[0], right, true, true
}

func (n *innerNode) insert(key int64, row int, order int) (int64, node, bool, bool) {
	i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
	sep, right, split, newKey := n.children[i].insert(key, row, order)
	if !split {
		return 0, nil, false, newKey
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.children) <= order {
		return 0, nil, false, newKey
	}
	mid := len(n.keys) / 2
	up := n.keys[mid]
	rightNode := &innerNode{
		keys:     append([]int64(nil), n.keys[mid+1:]...),
		children: append([]node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return up, rightNode, true, newKey
}

// findLeaf descends to the leaf that would hold key, returning it together
// with the number of nodes probed on the way (root and leaf included).
func (t *Tree) findLeaf(key int64) (*leafNode, int) {
	probes := 0
	cur := t.root
	for {
		probes++
		switch n := cur.(type) {
		case *leafNode:
			return n, probes
		case *innerNode:
			i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
			cur = n.children[i]
		}
	}
}

// Contains reports whether key is present.
func (t *Tree) Contains(key int64) bool {
	ok, _ := t.ContainsProbes(key)
	return ok
}

// ContainsProbes reports presence together with the number of node probes
// used — the measurable stand-in for the paper's O(log |D|) access path.
func (t *Tree) ContainsProbes(key int64) (bool, int) {
	l, probes := t.findLeaf(key)
	i := sort.Search(len(l.keys), func(i int) bool { return l.keys[i] >= key })
	return i < len(l.keys) && l.keys[i] == key, probes
}
