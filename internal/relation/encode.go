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

// rawValue is a value as the walker reads it: a string is where its bytes
// lie in the input, so a reader that drops the value has copied nothing for
// it, and a tuple of them holds no pointer.
type rawValue struct {
	kind   Kind
	i      int64
	lo, hi int
}

// value reads one value: its kind byte, then a varint (int64) or a length
// and that many bytes (string). It runs once per value of D, so it reads
// through local copies of the cursor with one uvarint read for either kind —
// a varint is a zigzagged uvarint — and names every refusal as the readers
// above would.
func (d *decoder) value() (v rawValue, err error) {
	buf, off := d.buf, d.off
	if off >= len(buf) {
		return v, fmt.Errorf("relation: truncated input at offset %d", off)
	}
	v.kind = Kind(buf[off])
	off++
	if v.kind != KindInt64 && v.kind != KindString {
		return v, fmt.Errorf("relation: unknown value kind %d", buf[off-1])
	}
	x, n := binary.Uvarint(buf[off:])
	switch {
	case n <= 0 && v.kind == KindInt64:
		return v, fmt.Errorf("relation: corrupt varint at offset %d", off)
	case n <= 0:
		return v, fmt.Errorf("relation: corrupt uvarint at offset %d", off)
	}
	off += n
	if v.kind == KindInt64 {
		v.i = int64(x>>1) ^ -int64(x&1)
	} else {
		if uint64(len(buf)-off) < x {
			return v, fmt.Errorf("relation: string of length %d overruns input", x)
		}
		v.lo, off = off, off+int(x)
		v.hi = off
	}
	d.off = off
	return v, nil
}

// The walker — header, tuple, end — is the one reader of the encoding;
// Decode and Int64Column are two ways of keeping what it reads, so both
// accept the same inputs and refuse the rest with the same error.

// header reads the schema and the tuple count. Both counts are bounded by
// the bytes left before anything is sized from them: this decoder sees
// attacker-controlled bytes on the serve path.
func (d *decoder) header() (*Schema, int, error) {
	name, err := d.str()
	if err != nil {
		return nil, 0, err
	}
	nattrs, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	// Each attribute costs at least two bytes (name + kind).
	if nattrs > uint64(len(d.buf)-d.off)/2 {
		return nil, 0, fmt.Errorf("relation: attribute count %d exceeds remaining %d bytes", nattrs, len(d.buf)-d.off)
	}
	attrs := make([]Attr, 0, nattrs)
	for i := uint64(0); i < nattrs; i++ {
		an, err := d.str()
		if err != nil {
			return nil, 0, err
		}
		kb, err := d.byte()
		if err != nil {
			return nil, 0, err
		}
		if Kind(kb) != KindInt64 && Kind(kb) != KindString {
			return nil, 0, fmt.Errorf("relation: unknown attribute kind %d", kb)
		}
		attrs = append(attrs, Attr{Name: an, Kind: Kind(kb)})
	}
	schema, err := NewSchema(name, attrs...)
	if err != nil {
		return nil, 0, err
	}
	ntuples, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	// Every value costs at least two bytes (its kind, then a varint or a
	// length), so ntuples × nattrs is bounded by the remaining buffer;
	// bounding ntuples by the bytes too rejects a hostile huge count on a
	// zero-attr schema, which would otherwise loop byte-free.
	left := uint64(len(d.buf) - d.off)
	if ntuples > left || nattrs > 0 && ntuples > left/2/nattrs {
		return nil, 0, fmt.Errorf("relation: %d tuples of %d attributes exceed remaining %d bytes", ntuples, nattrs, left)
	}
	return schema, int(ntuples), nil
}

// tuple reads the next tuple into t, one value per attribute, and then
// checks each value's kind against its attribute.
func (d *decoder) tuple(s *Schema, t []rawValue) error {
	for j := range t {
		v, err := d.value()
		if err != nil {
			return err
		}
		t[j] = v
	}
	for j, a := range s.Attrs {
		if t[j].kind != a.Kind {
			return fmt.Errorf("relation %q: attribute %q expects %v, got %v", s.Name, a.Name, a.Kind, t[j].kind)
		}
	}
	return nil
}

// end refuses bytes after the last tuple.
func (d *decoder) end() error {
	if d.off != len(d.buf) {
		return fmt.Errorf("relation: %d trailing bytes after relation", len(d.buf)-d.off)
	}
	return nil
}

// Decode parses a byte string produced by Encode.
func Decode(buf []byte) (*Relation, error) {
	d := &decoder{buf: buf}
	schema, n, err := d.header()
	if err != nil {
		return nil, err
	}
	rel := New(schema)
	// One allocation for every value: each tuple is a full slice expression
	// of its own stretch, so an append to one cannot overwrite the next.
	k := len(schema.Attrs)
	vals := make([]Value, n*k)
	if n > 0 {
		rel.Tuples = make([]Tuple, n)
	}
	raw := make([]rawValue, k)
	for i := range rel.Tuples {
		if err := d.tuple(schema, raw); err != nil {
			return nil, err
		}
		t := Tuple(vals[i*k : (i+1)*k : (i+1)*k])
		for j, v := range raw {
			t[j] = Value{Kind: v.kind, I: v.i}
			if v.kind == KindString {
				t[j].S = string(buf[v.lo:v.hi])
			}
		}
		rel.Tuples[i] = t
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return rel, nil
}

// Int64Column reads the int64 attribute attr of the relation encoded in buf,
// in tuple order, without building the relation: the walk is Decode's, so it
// accepts exactly what Decode accepts and refuses the rest with Decode's
// error, and a missing or non-int64 attr is refused only after that. Whole
// tuples are read by column, and the walker takes over at the start of the
// first one column does not read, so any refusal is the walker's own.
func Int64Column(buf []byte, attr string) ([]int64, error) {
	d := &decoder{buf: buf}
	schema, n, err := d.header()
	if err != nil {
		return nil, err
	}
	idx := schema.AttrIndex(attr)
	var col []int64
	if idx >= 0 && schema.Attrs[idx].Kind == KindInt64 {
		col = make([]int64, n)
	}
	i := 0
	if col != nil {
		i = d.column(schema, idx, col)
	}
	raw := make([]rawValue, len(schema.Attrs))
	for ; i < n; i++ {
		if err := d.tuple(schema, raw); err != nil {
			return nil, err
		}
		if col != nil {
			col[i] = raw[idx].i
		}
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	switch {
	case idx < 0:
		return nil, fmt.Errorf("relation %q: no attribute %q", schema.Name, attr)
	case col == nil:
		return nil, fmt.Errorf("relation %q: attribute %q is %v, want int64", schema.Name, attr, schema.Attrs[idx].Kind)
	}
	return col, nil
}

// column reads tuples into col[i], attribute idx of tuple i, for as long as
// each tuple is well formed, and returns how many it read; d is left at the
// start of the first tuple it did not read. It is the walker's tuple with
// the refusals taken out — the walker reads that tuple next and names what
// is wrong with it — and with the uvarint read inline, so a key column is
// read at the speed of its bytes.
func (d *decoder) column(s *Schema, idx int, col []int64) int {
	buf, off := d.buf, d.off
	for i := range col {
		at := off
		for j, a := range s.Attrs {
			if off >= len(buf) || Kind(buf[off]) != a.Kind {
				d.off = at
				return i
			}
			x, next, ok := uvarintAt(buf, off+1)
			switch off = next; {
			case !ok || a.Kind == KindString && uint64(len(buf)-off) < x:
				d.off = at
				return i
			case a.Kind == KindString:
				off += int(x)
			case j == idx:
				col[i] = int64(x>>1) ^ -int64(x&1)
			}
		}
	}
	d.off = off
	return len(col)
}

// uvarintAt is binary.Uvarint(buf[off:]) for column: the value, the offset
// after it, and whether it was well formed (ten bytes at most, the tenth at
// most 1).
func uvarintAt(buf []byte, off int) (x uint64, next int, ok bool) {
	if off < len(buf) && buf[off] < 0x80 {
		return uint64(buf[off]), off + 1, true
	}
	for s := 0; off < len(buf); s += 7 {
		b := buf[off]
		off++
		if s == 63 && b > 1 {
			return 0, off, false
		}
		x |= uint64(b&0x7f) << s
		if b < 0x80 {
			return x, off, true
		}
	}
	return 0, off, false
}
