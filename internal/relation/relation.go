// Package relation implements the relational substrate used by the paper's
// motivating examples: schemas, tuples, relations, Boolean selection
// queries, and a deterministic byte encoding that plays the role of the
// paper's Σ* strings ("a database can be encoded as a string D ∈ Σ*").
//
// The package deliberately covers only what the paper exercises — point and
// range selections on attributes (Example 1, Example 3, §4(1)) — but covers
// it at production quality: typed schemas, validation, deterministic
// encode/decode, and seeded workload generation.
package relation

import (
	"fmt"
	"math/rand"
)

// Kind enumerates supported attribute types.
type Kind int

const (
	// KindInt64 is a 64-bit signed integer attribute.
	KindInt64 Kind = iota
	// KindString is a byte-string attribute.
	KindString
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "int64"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attr is one attribute of a schema.
type Attr struct {
	Name string
	Kind Kind
}

// Schema describes a relation: a name plus an ordered attribute list.
type Schema struct {
	Name  string
	Attrs []Attr
}

// NewSchema validates and returns a schema. Attribute names must be
// non-empty and unique.
func NewSchema(name string, attrs ...Attr) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: schema name must be non-empty")
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation: schema %q has an unnamed attribute", name)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("relation: schema %q repeats attribute %q", name, a.Name)
		}
		seen[a.Name] = true
	}
	return &Schema{Name: name, Attrs: attrs}, nil
}

// MustSchema is NewSchema that panics on error, for static schemas.
func MustSchema(name string, attrs ...Attr) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Value is a dynamically typed attribute value.
type Value struct {
	Kind Kind
	I    int64
	S    string
}

// Int returns an int64 value.
func Int(v int64) Value { return Value{Kind: KindInt64, I: v} }

// Str returns a string value.
func Str(v string) Value { return Value{Kind: KindString, S: v} }

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(w Value) bool {
	return v.Kind == w.Kind && v.I == w.I && v.S == w.S
}

// Less orders values of the same kind (ints numerically, strings
// lexicographically). Comparing across kinds orders ints before strings so
// that sorting mixed columns is still total.
func (v Value) Less(w Value) bool {
	if v.Kind != w.Kind {
		return v.Kind < w.Kind
	}
	if v.Kind == KindInt64 {
		return v.I < w.I
	}
	return v.S < w.S
}

// String renders the value.
func (v Value) String() string {
	if v.Kind == KindInt64 {
		return fmt.Sprintf("%d", v.I)
	}
	return fmt.Sprintf("%q", v.S)
}

// Tuple is an ordered list of values matching a schema.
type Tuple []Value

// Relation is an instance of a schema: a bag of tuples.
type Relation struct {
	Schema *Schema
	Tuples []Tuple
}

// New returns an empty relation over the schema.
func New(s *Schema) *Relation { return &Relation{Schema: s} }

// Len reports the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Append validates a tuple against the schema and adds it.
func (r *Relation) Append(t Tuple) error {
	if len(t) != len(r.Schema.Attrs) {
		return fmt.Errorf("relation %q: tuple arity %d, schema arity %d",
			r.Schema.Name, len(t), len(r.Schema.Attrs))
	}
	for i, v := range t {
		if v.Kind != r.Schema.Attrs[i].Kind {
			return fmt.Errorf("relation %q: attribute %q expects %v, got %v",
				r.Schema.Name, r.Schema.Attrs[i].Name, r.Schema.Attrs[i].Kind, v.Kind)
		}
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// MustAppend is Append that panics on error, for test fixtures.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// ScanPointSelect answers the paper's Q1 by a full scan: does some tuple t
// have t[attr] = c? This is the no-preprocessing baseline of Example 1.
func (r *Relation) ScanPointSelect(attr string, c Value) (bool, error) {
	idx := r.Schema.AttrIndex(attr)
	if idx < 0 {
		return false, fmt.Errorf("relation %q: no attribute %q", r.Schema.Name, attr)
	}
	for _, t := range r.Tuples {
		if t[idx].Equal(c) {
			return true, nil
		}
	}
	return false, nil
}

// ScanRangeSelect answers the §4(1) Boolean range query by a full scan:
// does some tuple t satisfy lo ≤ t[attr] ≤ hi?
func (r *Relation) ScanRangeSelect(attr string, lo, hi Value) (bool, error) {
	idx := r.Schema.AttrIndex(attr)
	if idx < 0 {
		return false, fmt.Errorf("relation %q: no attribute %q", r.Schema.Name, attr)
	}
	for _, t := range r.Tuples {
		v := t[idx]
		if !v.Less(lo) && !hi.Less(v) {
			return true, nil
		}
	}
	return false, nil
}

// GenConfig parameterizes synthetic relation generation.
type GenConfig struct {
	Rows    int
	Seed    int64
	KeyMax  int64 // keys drawn uniformly from [0, KeyMax)
	Payload int   // length of the generated string payload
}

// Generate builds a synthetic two-column relation R(key int64, payload
// string) of the shape Example 1 queries: point selections on "key".
func Generate(cfg GenConfig) *Relation {
	if cfg.KeyMax <= 0 {
		cfg.KeyMax = int64(cfg.Rows) * 4
		if cfg.KeyMax == 0 {
			cfg.KeyMax = 1
		}
	}
	if cfg.Payload <= 0 {
		cfg.Payload = 8
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := New(MustSchema("synthetic",
		Attr{Name: "key", Kind: KindInt64},
		Attr{Name: "payload", Kind: KindString},
	))
	buf := make([]byte, cfg.Payload)
	for i := 0; i < cfg.Rows; i++ {
		for j := range buf {
			buf[j] = byte('a' + rng.Intn(26))
		}
		r.MustAppend(Tuple{Int(rng.Int63n(cfg.KeyMax)), Str(string(buf))})
	}
	return r
}
