// Package views implements query answering using views, the paper's §4(6)
// strategy: materialize a set V of views over a database D in PTIME (the
// preprocessing), then answer queries by rewriting them over the view
// extensions V(D) only — never touching the original, big D. When the
// rewritten query runs in parallel polylog time on the views, the query
// class is Π-tractable.
//
// The concrete query class here is the paper's running example: Boolean
// point selections on a relation (Q1 of Example 1).
// Views are range partitions σ_{lo ≤ A ≤ hi}(R), each materialized with its
// own B⁺-tree, so the rewritten query is an index probe on a structure much
// smaller than D.
package views

import (
	"fmt"

	"pitract/internal/btree"
	"pitract/internal/relation"
)

// Def is a view definition: the rows of R whose attr value lies in
// [Lo, Hi].
type Def struct {
	Name string
	Attr string
	Lo   int64
	Hi   int64
}

// Covers reports whether the view can answer a point query attr = c.
func (d Def) Covers(attr string, c int64) bool {
	return d.Attr == attr && d.Lo <= c && c <= d.Hi
}

// Materialized is one view extension: the matching rows plus an index.
type Materialized struct {
	Def  Def
	Rows int
	idx  *btree.Tree
}

// Set is a collection of materialized views over one relation — the
// preprocessed structure Π(D).
type Set struct {
	views []*Materialized
}

// Materialize builds the extensions of the given definitions over r in one
// PTIME pass per view. Definitions over missing or non-integer attributes
// are rejected.
func Materialize(r *relation.Relation, defs []Def) (*Set, error) {
	s := &Set{}
	for _, def := range defs {
		idx := r.Schema.AttrIndex(def.Attr)
		if idx < 0 {
			return nil, fmt.Errorf("views: %s: relation %q has no attribute %q", def.Name, r.Schema.Name, def.Attr)
		}
		if r.Schema.Attrs[idx].Kind != relation.KindInt64 {
			return nil, fmt.Errorf("views: %s: attribute %q is not int64", def.Name, def.Attr)
		}
		if def.Hi < def.Lo {
			return nil, fmt.Errorf("views: %s: empty range [%d,%d]", def.Name, def.Lo, def.Hi)
		}
		m := &Materialized{Def: def, idx: btree.NewDefault()}
		for row, t := range r.Tuples {
			v := t[idx].I
			if def.Lo <= v && v <= def.Hi {
				m.idx.Insert(v, row)
				m.Rows++
			}
		}
		s.views = append(s.views, m)
	}
	return s, nil
}

// ErrNoView reports that no materialized view covers a query; per the
// paper this means the query cannot be answered using the views and would
// need the original D.
type ErrNoView struct {
	Attr  string
	Value int64
}

// Error implements error.
func (e *ErrNoView) Error() string {
	return fmt.Sprintf("views: no view covers point %s = %d", e.Attr, e.Value)
}

// AnswerPoint rewrites the Boolean point selection "∃t: t[attr] = c" over
// the first covering view and answers it with an O(log |V(D)|) index probe.
func (s *Set) AnswerPoint(attr string, c int64) (bool, error) {
	for _, m := range s.views {
		if m.Def.Covers(attr, c) {
			return m.idx.Contains(c), nil
		}
	}
	return false, &ErrNoView{Attr: attr, Value: c}
}

// Views lists the materialized views.
func (s *Set) Views() []*Materialized { return s.views }

// TotalRows reports the summed extension sizes |V(D)|, the footprint the
// paper contrasts with |D| ("in practice V(D) is often much smaller than
// D").
func (s *Set) TotalRows() int {
	total := 0
	for _, m := range s.views {
		total += m.Rows
	}
	return total
}

// EvenPartition returns k contiguous range views splitting [lo, hi] —
// a convenient workload-shaped view set.
func EvenPartition(attr string, lo, hi int64, k int) []Def {
	if k < 1 {
		k = 1
	}
	defs := make([]Def, 0, k)
	span := hi - lo + 1
	for i := 0; i < k; i++ {
		vlo := lo + span*int64(i)/int64(k)
		vhi := lo + span*int64(i+1)/int64(k) - 1
		if i == k-1 {
			vhi = hi
		}
		defs = append(defs, Def{
			Name: fmt.Sprintf("%s_part_%d", attr, i),
			Attr: attr, Lo: vlo, Hi: vhi,
		})
	}
	return defs
}
