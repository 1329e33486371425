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
	"math/bits"
	"slices"

	"pitract/internal/parts"
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
// tuples are read by column, in parts for a large buf (columnParts), and
// the walker takes over at the start of the first one
// column does not read, so any refusal is the walker's own.
func Int64Column(buf []byte, attr string) ([]int64, error) {
	return int64Column(buf, attr, parts.For(len(buf)))
}

// int64Column is Int64Column with the tuples read in k parts.
func int64Column(buf []byte, attr string, k int) ([]int64, error) {
	d := &decoder{buf: buf}
	schema, n, err := d.header()
	if err != nil {
		return nil, err
	}
	idx := schema.AttrIndex(attr)
	var col []int64
	i := 0
	if idx >= 0 && schema.Attrs[idx].Kind == KindInt64 {
		col, i = d.columnParts(schema, idx, n, k)
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

// syncTuples is how many tuples must read from an offset — or every tuple up
// to the end of the buffer — for a part to start there.
const syncTuples = 4

// syncFloor is the least a part's resync may read, in bytes, however small
// the part: parts.For never cuts a part that small, but a test does.
const syncFloor = 1 << 16

// columnSplit is a column of n keys read in k parts of the tuple bytes
// [lo, lo+size); runs[j] is what part j read.
type columnSplit struct {
	buf      []byte
	s        *Schema
	idx, n   int
	lo, size int
	k        int
	runs     []columnRun
}

// columnRun is what a part read: its tuples start at start and end at end,
// and their n keys are col's first; at is where they go in the column.
type columnRun struct {
	start, end, n, at int
	col               []int64
}

// columnParts reads the n-key column of the rest of d in k parts, a
// speculative split as in parallel CSV parsing: the tuple bytes are cut at
// k−1 offsets, part 0 starts at the first tuple, and part j > 0 at the first
// offset at or past its cut from which syncTuples tuples read — a guess,
// since a string's bytes can read as tuples too. Each part reads until its
// offset reaches the next cut. Part j's keys are kept only when every part
// before it was and part j−1 ended exactly where part j started: then part
// j read the tuples Decode reads, and the kept parts' keys are copied into
// the column (part 0's are already there), a part each. From the end of the
// last part kept, column reads on alone, so the column it returns, how many
// keys it read and where it leaves d are the one-part read's.
func (d *decoder) columnParts(s *Schema, idx, n, k int) ([]int64, int) {
	size := len(d.buf) - d.off
	k = max(1, min(k, size)) // a part reads at least one byte
	sp := columnSplit{buf: d.buf, s: s, idx: idx, n: n, lo: d.off, size: size, k: k, runs: make([]columnRun, k)}
	parts.Run(k, sp, readColumnPart)
	col, off, i, kept := sp.runs[0].col, sp.lo, 0, 0
	for ; kept < k && sp.runs[kept].start == off && i+sp.runs[kept].n <= n; kept++ {
		r := &sp.runs[kept]
		r.at, off, i = i, r.end, i+r.n
	}
	parts.Run(kept, sp, placeColumnRun)
	d.off = off
	return col, i + d.column(s, idx, col[i:], len(d.buf))
}

// readColumnPart reads part j of sp into sp.runs[j]. Part 0 allocates the
// column and reads into it; a part after it does not know where in the
// column its keys go, so it reads them into a slice of its own, sized by the
// tuples' mean length and grown as needed up to the column's length.
func readColumnPart(sp columnSplit, j int) {
	lo, hi := sp.lo+parts.Cut(sp.size, sp.k, j), sp.lo+parts.Cut(sp.size, sp.k, j+1)
	d := decoder{buf: sp.buf, off: lo}
	r := &sp.runs[j]
	if j == 0 {
		r.col = make([]int64, sp.n)
	} else {
		d.off = d.resync(sp.s, sp.idx, hi, 2*syncTuples*(sp.size/max(1, sp.n)+1))
		est := int(uint64(sp.n) * uint64(hi-lo) / uint64(sp.size))
		r.col = make([]int64, min(sp.n, est+est/16+16))
	}
	r.start = d.off
	for {
		r.n += d.column(sp.s, sp.idx, r.col[r.n:], hi)
		if d.off >= hi || r.n < len(r.col) || len(r.col) == sp.n {
			break
		}
		grow := min(len(r.col), sp.n-len(r.col))
		r.col = slices.Grow(r.col, grow)[:len(r.col)+grow]
	}
	r.end = d.off
}

// placeColumnRun copies kept part j's keys to their place in the column.
func placeColumnRun(sp columnSplit, j int) {
	if r := sp.runs[j]; j > 0 {
		copy(sp.runs[0].col[r.at:], r.col[:r.n])
	}
}

// resync returns the first offset from d's on, below hi, from which
// syncTuples tuples read or every tuple reads to the end of the buffer; hi
// when there is none, or once its probes have read the part's bytes. A
// probe from p reads no further than p+window — window holds syncTuples
// tuples of twice the mean length — and is charged all of it, so however
// long the tuples, the probes read no more bytes than the parts hold, and
// syncFloor more each. The offset is only a guess, checked at the join: one
// resync gives up on costs speed, never the column.
func (d *decoder) resync(s *Schema, idx, hi, window int) int {
	var probe [syncTuples]int64
	budget := max(hi-d.off, syncFloor)
	for p := d.off; p < hi && budget > 0; p++ {
		w := min(window, budget)
		budget -= w
		try := decoder{buf: d.buf[:min(len(d.buf), p+w)], off: p}
		if n := try.column(s, idx, probe[:], len(d.buf)); n == len(probe) || try.off == len(d.buf) {
			return p
		}
	}
	return hi
}

// column reads tuples into col[i], attribute idx of tuple i, for as long as
// each tuple is well formed, col has room and d's offset is below stop, and
// returns how many it read; d is left at the start of the first tuple it did
// not read. It is the walker's tuple with the refusals taken out — the
// walker reads that tuple next and names what is wrong with it — and with
// the uvarint read inline, so a key column is read at the speed of its
// bytes.
func (d *decoder) column(s *Schema, idx int, col []int64, stop int) int {
	buf, off := d.buf, d.off
	for i := range col {
		if off >= stop {
			d.off = off
			return i
		}
		at := off
		for j, a := range s.Attrs {
			if off >= len(buf) || Kind(buf[off]) != a.Kind {
				d.off = at
				return i
			}
			// The value's uvarint, read inline (as uvarintBytes reads it): a
			// one-byte one, as a short string's length is, then one that
			// ends within eight bytes by uvarint8; anything else — a longer
			// one, or one near the end of buf — a byte at a time.
			p, x, n := off+1, uint64(0), 0
			switch {
			case p < len(buf) && buf[p] < 0x80:
				x, n = uint64(buf[p]), 1
			case p+8 <= len(buf):
				x, n = uvarint8(binary.LittleEndian.Uint64(buf[p:]))
			}
			next, ok := p+n, n > 0
			if !ok {
				x, next, ok = uvarintBytes(buf, p)
			}
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

// uvarintBytes is binary.Uvarint(buf[off:]) for column: the value, the
// offset after it, and whether it was well formed (ten bytes at most, the
// tenth at most 1), read a byte at a time.
func uvarintBytes(buf []byte, off int) (x uint64, next int, ok bool) {
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

// uvarint8 decodes a uvarint that ends within the eight bytes of w, read
// little-endian, with one branch: its n bytes are the ones up to the first
// with the high bit clear, and their 7-bit groups are packed by closing the
// gaps between them pairwise three times. n is 0 when no byte of w ends a
// uvarint.
func uvarint8(w uint64) (x uint64, n int) {
	ends := ^w & 0x8080808080808080
	if ends == 0 {
		return 0, 0
	}
	w &= (ends ^ (ends - 1)) & 0x7f7f7f7f7f7f7f7f
	w = w&0x007f007f007f007f | w>>1&0x3f803f803f803f80
	w = w&0x00003fff00003fff | w>>2&0x0fffc0000fffc000
	return w&0x0fffffff | w>>4&0x00fffffff0000000, bits.TrailingZeros64(ends)>>3 + 1
}
