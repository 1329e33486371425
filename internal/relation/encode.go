package relation

// Deterministic, self-delimiting byte encoding for relations.
//
// The paper models databases and queries as strings over a finite alphabet
// Σ "with necessary delimiters". This codec makes that concrete: encode a
// relation to bytes, decode it back, and round-trip exactly. The framework
// package (internal/core) moves relations across the data/query boundary of
// factorizations in this form.

import (
	"encoding/binary"
	"fmt"
)

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	if v.Kind == KindInt64 {
		return binary.AppendVarint(dst, v.I)
	}
	return appendString(dst, v.S)
}

// Encode serializes the relation, schema included, into a self-delimiting
// byte string.
func (r *Relation) Encode() []byte {
	var b []byte
	b = appendString(b, r.Schema.Name)
	b = appendUvarint(b, uint64(len(r.Schema.Attrs)))
	for _, a := range r.Schema.Attrs {
		b = appendString(b, a.Name)
		b = append(b, byte(a.Kind))
	}
	b = appendUvarint(b, uint64(len(r.Tuples)))
	for _, t := range r.Tuples {
		for _, v := range t {
			b = appendValue(b, v)
		}
	}
	return b
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("relation: corrupt uvarint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("relation: corrupt varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("relation: truncated input at offset %d", d.off)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(d.buf)-d.off) < n {
		return "", fmt.Errorf("relation: string of length %d overruns input", n)
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) value() (Value, error) {
	kb, err := d.byte()
	if err != nil {
		return Value{}, err
	}
	switch Kind(kb) {
	case KindInt64:
		i, err := d.varint()
		if err != nil {
			return Value{}, err
		}
		return Int(i), nil
	case KindString:
		s, err := d.str()
		if err != nil {
			return Value{}, err
		}
		return Str(s), nil
	default:
		return Value{}, fmt.Errorf("relation: unknown value kind %d", kb)
	}
}

// Decode parses a byte string produced by Encode.
func Decode(buf []byte) (*Relation, error) {
	d := &decoder{buf: buf}
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	nattrs, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Each attribute costs at least two bytes (name + kind), so bound the
	// count by the remaining buffer before allocating — this decoder sees
	// attacker-controlled bytes on the serve path.
	if nattrs > uint64(len(buf)-d.off)/2 {
		return nil, fmt.Errorf("relation: attribute count %d exceeds remaining %d bytes", nattrs, len(buf)-d.off)
	}
	attrs := make([]Attr, 0, nattrs)
	for i := uint64(0); i < nattrs; i++ {
		an, err := d.str()
		if err != nil {
			return nil, err
		}
		kb, err := d.byte()
		if err != nil {
			return nil, err
		}
		if Kind(kb) != KindInt64 && Kind(kb) != KindString {
			return nil, fmt.Errorf("relation: unknown attribute kind %d", kb)
		}
		attrs = append(attrs, Attr{Name: an, Kind: Kind(kb)})
	}
	schema, err := NewSchema(name, attrs...)
	if err != nil {
		return nil, err
	}
	rel := New(schema)
	ntuples, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Every value costs at least two bytes (its kind, then a varint or a
	// length), so ntuples × nattrs is bounded by the remaining buffer before
	// anything is allocated from it; bounding ntuples by the bytes too rejects
	// a hostile huge count on a zero-attr schema, which would otherwise loop
	// byte-free.
	left := uint64(len(buf) - d.off)
	if ntuples > left || nattrs > 0 && ntuples > left/2/nattrs {
		return nil, fmt.Errorf("relation: %d tuples of %d attributes exceed remaining %d bytes", ntuples, nattrs, left)
	}
	// One allocation for every value: each tuple is a full slice expression
	// of its own stretch, so an append to one cannot overwrite the next.
	vals := make([]Value, ntuples*nattrs)
	if ntuples > 0 {
		rel.Tuples = make([]Tuple, 0, ntuples)
	}
	for i := uint64(0); i < ntuples; i++ {
		t := Tuple(vals[i*nattrs : (i+1)*nattrs : (i+1)*nattrs])
		for j := range t {
			v, err := d.value()
			if err != nil {
				return nil, err
			}
			t[j] = v
		}
		if err := rel.Append(t); err != nil {
			return nil, err
		}
	}
	if d.off != len(buf) {
		return nil, fmt.Errorf("relation: %d trailing bytes after relation", len(buf)-d.off)
	}
	return rel, nil
}
