// Package listsearch implements the paper's §4(2) case study, problem L1:
//
//	Input:    an unordered list M and an element e.
//	Question: does e appear in M?
//
// The factorization Υ1 treats M as data and e as query. Preprocessing sorts
// M in O(|M| log |M|); afterwards every membership query is answered by
// binary search in O(log |M|). The naive baseline scans M per query.
package listsearch

import "sort"

// Scan answers membership with a linear scan — the no-preprocessing
// baseline: O(|M|) per query.
func Scan(list []int64, e int64) bool {
	for _, v := range list {
		if v == e {
			return true
		}
	}
	return false
}

// Index is the sorted copy of M produced by the Υ1 preprocessing function.
type Index struct {
	sorted []int64
}

// NewIndex sorts a copy of the list (PTIME preprocessing; the input is not
// mutated).
func NewIndex(list []int64) *Index {
	s := append([]int64(nil), list...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return &Index{sorted: s}
}

// Len reports the list length.
func (x *Index) Len() int { return len(x.sorted) }

// Contains answers membership by binary search in O(log |M|).
func (x *Index) Contains(e int64) bool {
	ok, _ := x.ContainsProbes(e)
	return ok
}

// ContainsProbes also reports the number of probes used, the measurable
// stand-in for the O(log |M|) bound.
func (x *Index) ContainsProbes(e int64) (bool, int) {
	lo, hi, probes := 0, len(x.sorted), 0
	for lo < hi {
		probes++
		mid := int(uint(lo+hi) >> 1)
		switch {
		case x.sorted[mid] == e:
			return true, probes
		case x.sorted[mid] < e:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false, probes
}
