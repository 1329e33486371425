package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pitract/internal/parts"
)

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(""); err == nil {
		t.Error("empty schema name accepted")
	}
	if _, err := NewSchema("r", Attr{Name: "", Kind: KindInt64}); err == nil {
		t.Error("unnamed attribute accepted")
	}
	if _, err := NewSchema("r", Attr{Name: "a"}, Attr{Name: "a"}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewSchema("r", Attr{Name: "a"}, Attr{Name: "b"}); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema did not panic on invalid schema")
		}
	}()
	MustSchema("")
}

func TestAppendValidation(t *testing.T) {
	r := New(MustSchema("r", Attr{Name: "k", Kind: KindInt64}, Attr{Name: "s", Kind: KindString}))
	if err := r.Append(Tuple{Int(1)}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := r.Append(Tuple{Str("x"), Str("y")}); err == nil {
		t.Error("wrong kind accepted")
	}
	if err := r.Append(Tuple{Int(1), Str("y")}); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestValueOrderingAndString(t *testing.T) {
	if !Int(1).Less(Int(2)) || Int(2).Less(Int(1)) {
		t.Error("int ordering broken")
	}
	if !Str("a").Less(Str("b")) {
		t.Error("string ordering broken")
	}
	if !Int(99).Less(Str("")) {
		t.Error("cross-kind ordering should put ints first")
	}
	if Int(3).String() != "3" || Str("x").String() != `"x"` {
		t.Error("String rendering broken")
	}
	if KindInt64.String() != "int64" || KindString.String() != "string" || Kind(9).String() == "" {
		t.Error("Kind.String broken")
	}
}

func TestScanPointSelect(t *testing.T) {
	r := Generate(GenConfig{Rows: 500, Seed: 1, KeyMax: 100})
	// Key 'k' present iff some tuple has it; compare with manual scan.
	key := r.Schema.AttrIndex("key")
	present := map[int64]bool{}
	for _, tu := range r.Tuples {
		present[tu[key].I] = true
	}
	for k := int64(0); k < 100; k++ {
		got, err := r.ScanPointSelect("key", Int(k))
		if err != nil {
			t.Fatal(err)
		}
		if got != present[k] {
			t.Fatalf("key %d: scan=%v want %v", k, got, present[k])
		}
	}
	if _, err := r.ScanPointSelect("nope", Int(0)); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestScanRangeSelect(t *testing.T) {
	r := New(MustSchema("r", Attr{Name: "k", Kind: KindInt64}))
	for _, v := range []int64{10, 20, 30} {
		r.MustAppend(Tuple{Int(v)})
	}
	cases := []struct {
		lo, hi int64
		want   bool
	}{
		{0, 5, false}, {0, 10, true}, {10, 10, true}, {11, 19, false},
		{15, 25, true}, {31, 99, false}, {0, 99, true},
	}
	for _, c := range cases {
		got, err := r.ScanRangeSelect("k", Int(c.lo), Int(c.hi))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("range [%d,%d]: got %v want %v", c.lo, c.hi, got, c.want)
		}
	}
	if _, err := r.ScanRangeSelect("nope", Int(0), Int(1)); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestInt64Column(t *testing.T) {
	r := New(MustSchema("r", Attr{Name: "k", Kind: KindInt64}, Attr{Name: "s", Kind: KindString}))
	for _, v := range []int64{5, 3, 5, 1, 3} {
		r.MustAppend(Tuple{Int(v), Str("p")})
	}
	enc := r.Encode()
	got, err := Int64Column(enc, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int64{5, 3, 5, 1, 3}) {
		t.Fatalf("Int64Column = %v, want the column in tuple order", got)
	}
	if _, err := Int64Column(enc, "s"); err == nil || err.Error() != `relation "r": attribute "s" is string, want int64` {
		t.Errorf("Int64Column on a string column: %v", err)
	}
	if _, err := Int64Column(enc, "nope"); err == nil || err.Error() != `relation "r": no attribute "nope"` {
		t.Errorf("Int64Column on a missing column: %v", err)
	}
}

// corruptInputs are TestDecodeRejectsCorruptInput's hostile inputs, and the
// encoding they were cut from.
func corruptInputs() (enc []byte, cases [][]byte) {
	enc = Generate(GenConfig{Rows: 10, Seed: 3}).Encode()
	bad := append([]byte{}, enc...)
	// The first attribute kind byte: name "synthetic" (1+9 bytes) + attr
	// count (1) + "key" (1+3) => kind at offset 15.
	bad[15] = 0x7f
	return enc, [][]byte{
		nil,
		enc[:len(enc)/2],                     // truncated
		append(enc[:0:0], append(enc, 0)...), // trailing byte
		bad,                                  // unknown attribute kind
	}
}

// FuzzInt64Column: on any bytes, the column read in k parts — k from 1 to
// 8, drawn by the fuzzer — accepts exactly when Decode(b) accepts and "key"
// is an int64 attribute, returns Decode's column, and refuses what Decode
// refuses with Decode's error.
func FuzzInt64Column(f *testing.F) {
	enc, cases := corruptInputs()
	f.Add(enc, uint8(0))
	for i, c := range cases {
		f.Add(c, uint8(i))
	}
	// A value of the wrong kind in a tuple whose next value is cut off: the
	// truncation is named, as Decode names it.
	r := New(MustSchema("r", Attr{Name: "key", Kind: KindString}, Attr{Name: "p", Kind: KindString}))
	r.MustAppend(Tuple{Str("a"), Str("x")})
	wrong := r.Encode()
	wrong[7] = byte(KindInt64) // "key"'s kind: name (2) + count (1) + "key" (4)
	f.Add(wrong, uint8(1))
	f.Add(wrong[:len(wrong)-2], uint8(2))
	f.Add(New(MustSchema("r", Attr{Name: "key", Kind: KindString})).Encode(), uint8(6))
	for i, b := range handOffSeeds() {
		f.Add(b, uint8(i+1))
	}
	f.Add(decoyRelation(), uint8(6))
	f.Fuzz(func(t *testing.T, b []byte, k uint8) {
		col, err := int64Column(b, "key", 1+int(k%8))
		rel, derr := Decode(b)
		if derr != nil {
			if err == nil || err.Error() != derr.Error() {
				t.Fatalf("Decode refuses with %q; Int64Column: %v", derr, err)
			}
			return
		}
		idx := rel.Schema.AttrIndex("key")
		if idx < 0 || rel.Schema.Attrs[idx].Kind != KindInt64 {
			if err == nil {
				t.Fatalf("no int64 key in %v, yet Int64Column returned %v", rel.Schema.Attrs, col)
			}
			return
		}
		if err != nil {
			t.Fatalf("Decode accepts; Int64Column: %v", err)
		}
		want := make([]int64, rel.Len())
		for i, tp := range rel.Tuples {
			want[i] = tp[idx].I
		}
		if !slices.Equal(col, want) || col == nil {
			t.Fatalf("Int64Column = %v, Decode's column %v", col, want)
		}
	})
}

// handOffSeeds are relations R(key int64, p string) whose tuples read well
// up to one in the middle, where Int64Column's column loop hands over to the
// walker: so Decode's error, or its column, is checked at a tuple other than
// the first.
func handOffSeeds() [][]byte {
	head := New(MustSchema("r", Attr{Name: "key", Kind: KindInt64}, Attr{Name: "p", Kind: KindString})).Encode()
	head = head[:len(head)-1] // drop the tuple count, 0
	good := func(n int) []byte {
		var b []byte
		for i := range n {
			b = appendValue(appendValue(b, Int(int64(7*i-3))), Str("x"))
		}
		return b
	}
	rel := func(count int, parts ...[]byte) []byte {
		b := binary.AppendUvarint(slices.Clone(head), uint64(count))
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	str := appendValue(nil, Str("x"))
	wrongKind := append(appendValue(nil, Str("k")), str...)
	tenBytes := append(appendValue(nil, Int(math.MinInt64)), str...)
	overflow := append([]byte{byte(KindInt64), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, str...)
	overrun := append(appendValue(nil, Int(1)), byte(KindString), 100, 'a', 'b')
	return [][]byte{
		rel(3, good(1), wrongKind, good(1)),     // the wrong kind after 1 good tuple
		rel(302, good(300), wrongKind, good(1)), // … and after 300
		rel(11, good(5), tenBytes, good(5)),     // a 10-byte varint, well formed
		rel(11, good(5), overflow, good(5)),     // a varint over 64 bits
		rel(6, good(5), overrun),                // a string that runs past the end
		append(rel(10, good(10)), 1, 2, 3),      // trailing bytes
		rel(12, good(10)),                       // fewer tuples than counted
	}
}

// TestUvarint8MatchesUvarint holds uvarint8 to binary.Uvarint on words
// ending a uvarint at every one of the eight bytes, and on words ending none.
func TestUvarint8MatchesUvarint(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := range 1 << 16 {
		var b [8]byte
		rng.Read(b[:])
		for j := range b {
			b[j] |= 0x80
		}
		if end := i % 9; end < 8 {
			b[end] &^= 0x80
		}
		x, n := uvarint8(binary.LittleEndian.Uint64(b[:]))
		want, wantN := binary.Uvarint(b[:])
		if max(wantN, 0) != n || n > 0 && x != want {
			t.Fatalf("% x: (%d, %d), binary.Uvarint (%d, %d)", b, x, n, want, wantN)
		}
	}
}

// partInputs are relation encodings whose key column a k-part read cuts
// awkwardly: tuples of every length straddling the cuts, a tuple longer than
// a part, the key after a string, a ten-byte key at the very end (no eight
// bytes after it), no tuples at all, the corrupt inputs and the hand-off
// seeds (a refusal in some part), and decoyRelation (payloads that read as
// tuples).
func partInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(40))
	in := map[string][]byte{}
	mixed := New(MustSchema("r", Attr{Name: "key", Kind: KindInt64}, Attr{Name: "p", Kind: KindString}))
	for i := range 300 {
		mixed.MustAppend(Tuple{Int(rng.Int63() - rng.Int63()>>uint(rng.Intn(64))), Str(strings.Repeat("x", rng.Intn(3*(i%7)+1)))})
	}
	in["mixed"] = mixed.Encode()
	long := New(mixed.Schema)
	for i := range 9 {
		long.MustAppend(Tuple{Int(int64(i)), Str(strings.Repeat("y", []int{0, 1, 300, 2, 0, 700, 5, 0, 1}[i]))})
	}
	in["long"] = long.Encode()
	second := New(MustSchema("r", Attr{Name: "p", Kind: KindString}, Attr{Name: "key", Kind: KindInt64}, Attr{Name: "q", Kind: KindString}))
	for i := range 100 {
		second.MustAppend(Tuple{Str(strings.Repeat("z", i%5)), Int(int64(i * i)), Str("")})
	}
	in["key-second"] = second.Encode()
	wide := New(MustSchema("r", Attr{Name: "key", Kind: KindInt64}))
	for i := range 64 {
		wide.MustAppend(Tuple{Int(math.MinInt64 + int64(i))})
	}
	in["ten-byte-keys"] = wide.Encode()
	in["empty"] = New(mixed.Schema).Encode()
	in["decoys"] = decoyRelation()
	enc, cases := corruptInputs()
	in["generated"] = enc
	for i, c := range append(cases, handOffSeeds()...) {
		in["refused-"+string(rune('a'+i))] = c
	}
	return in
}

// decoyRelation is R(key int64, p string) whose payloads are themselves
// encoded tuples of R — the sequence key 1000+j, empty payload, j < 40 — so
// that a part cut inside a payload finds tuples to read there: a false
// boundary, which the join must refuse.
func decoyRelation() []byte {
	var decoy []byte
	for j := range 40 {
		decoy = appendValue(appendValue(decoy, Int(int64(1000+j))), Str(""))
	}
	r := New(MustSchema("r", Attr{Name: "key", Kind: KindInt64}, Attr{Name: "p", Kind: KindString}))
	for i := range 12 {
		r.MustAppend(Tuple{Int(int64(-i)), Str(string(decoy))})
	}
	return r.Encode()
}

// TestInt64ColumnPartsMatchOnePart holds the k-part column read to the
// one-part read on every input of partInputs, for k = 2, 3 and 7: the same
// column or the same error text.
func TestInt64ColumnPartsMatchOnePart(t *testing.T) {
	for name, b := range partInputs() {
		want, wantErr := int64Column(b, "key", 1)
		if name == "mixed" || name == "key-second" {
			// Well-formed tuples with nothing that reads as a tuple inside
			// a string: every part joins, so none is read twice.
			d := &decoder{buf: b}
			s, n, err := d.header()
			if err != nil {
				t.Fatal(err)
			}
			sp := columnSplit{buf: b, s: s, idx: s.AttrIndex("key"), n: n, lo: d.off, size: len(b) - d.off, k: 7, runs: make([]columnRun, 7)}
			parts.Run(7, sp, readColumnPart)
			read := 0
			for j, r := range sp.runs {
				if j > 0 && r.start != sp.runs[j-1].end {
					t.Fatalf("%s: part %d starts at %d, part %d ended at %d", name, j, r.start, j-1, sp.runs[j-1].end)
				}
				read += r.n
			}
			if read != n {
				t.Fatalf("%s: 7 parts read %d of %d keys", name, read, n)
			}
		}
		for _, k := range []int{2, 3, 7} {
			got, err := int64Column(b, "key", k)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("%s, k=%d: (%v, %v), one part (%v, %v)", name, k, got, err, want, wantErr)
			}
		}
	}
}

// TestInt64ColumnCatchesFalseBoundaries cuts decoyRelation into 7 parts and
// requires that some part starts at an offset that is not a tuple's — a
// false boundary inside a payload — and that the column is Decode's all the
// same.
func TestInt64ColumnCatchesFalseBoundaries(t *testing.T) {
	b := decoyRelation()
	d := &decoder{buf: b}
	s, n, err := d.header()
	if err != nil {
		t.Fatal(err)
	}
	starts := map[int]bool{}
	raw := make([]rawValue, len(s.Attrs))
	walk := *d
	for range n {
		starts[walk.off] = true
		if err := walk.tuple(s, raw); err != nil {
			t.Fatal(err)
		}
	}
	starts[walk.off] = true
	const k = 7
	sp := columnSplit{buf: b, s: s, n: n, lo: d.off, size: len(b) - d.off, k: k, runs: make([]columnRun, k)}
	parts.Run(k, sp, readColumnPart)
	decoys := 0
	for _, r := range sp.runs[1:] {
		if r.n > 0 && !starts[r.start] {
			decoys++
		}
	}
	if decoys == 0 {
		t.Fatal("no part of the decoy relation started at a false boundary; the test no longer tests the join")
	}
	rel, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	col, err := int64Column(b, "key", k)
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range rel.Tuples {
		if col[i] != tp[0].I {
			t.Fatalf("%d parts starting at false boundaries: key %d is %d, Decode's %d", decoys, i, col[i], tp[0].I)
		}
	}
}

// TestInt64ColumnPartsReadLinearly reads, in 7 parts, one tuple of 10⁵
// int64 attributes, every value 0: every byte of it is KindInt64 or a zero
// uvarint, so a probe from any offset reads value after value until it runs
// out of tuple. Were each probe to read on to the end of the buffer, the
// parts would cost the square of the tuple's bytes, seconds here; their
// probes are bounded, so the 7-part read costs a few one-part reads.
func TestInt64ColumnPartsReadLinearly(t *testing.T) {
	attrs := make([]Attr, 100_000)
	tuple := make(Tuple, len(attrs))
	for i := range attrs {
		attrs[i], tuple[i] = Attr{Name: fmt.Sprint("a", i), Kind: KindInt64}, Int(0)
	}
	r := New(MustSchema("r", attrs...))
	r.MustAppend(tuple)
	b := r.Encode()
	best := func(k int) time.Duration {
		d := time.Duration(math.MaxInt64)
		for range 3 {
			start := time.Now()
			col, err := int64Column(b, "a0", k)
			d = min(d, time.Since(start))
			if err != nil || !slices.Equal(col, []int64{0}) {
				t.Fatalf("k=%d: (%v, %v), want ([0], nil)", k, col, err)
			}
		}
		return d
	}
	one, seven := best(1), best(7)
	if seven > 10*one+200*time.Millisecond {
		t.Fatalf("7 parts took %v, one part %v", seven, one)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		r := Generate(GenConfig{Rows: rng.Intn(200), Seed: int64(trial), KeyMax: 50, Payload: 1 + rng.Intn(12)})
		back, err := Decode(r.Encode())
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(r, back) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

func TestEncodeDecodeRoundTripQuick(t *testing.T) {
	f := func(keys []int64, payloads []string) bool {
		r := New(MustSchema("q", Attr{Name: "k", Kind: KindInt64}, Attr{Name: "p", Kind: KindString}))
		for i, k := range keys {
			p := ""
			if i < len(payloads) {
				p = payloads[i]
			}
			r.MustAppend(Tuple{Int(k), Str(p)})
		}
		back, err := Decode(r.Encode())
		return err == nil && reflect.DeepEqual(r, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	_, cases := corruptInputs()
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: corrupt input decoded", i)
		}
	}
}

// TestDecodeCarvesTuples pins Decode's allocation: the values of every tuple
// come from one slice, so decoding a relation costs a handful of allocations
// whatever its size, and each tuple is capped at its own values, so an append
// to one leaves the next alone.
func TestDecodeCarvesTuples(t *testing.T) {
	r := New(MustSchema("pairs", Attr{Name: "a", Kind: KindInt64}, Attr{Name: "b", Kind: KindInt64}))
	for i := int64(0); i < 1000; i++ {
		r.MustAppend(Tuple{Int(i), Int(-i)})
	}
	enc := r.Encode()
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := Decode(enc); err != nil {
			t.Fatal(err)
		}
	}); allocs > 16 {
		t.Errorf("decoding 1000 tuples allocates %.0f times, want a handful", allocs)
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(back.Tuples[0], Int(99))
	if back.Tuples[1][0] != Int(1) {
		t.Fatalf("an append to tuple 0 overwrote tuple 1: %v", back.Tuples[1])
	}
	// A tuple count the remaining bytes cannot hold at two bytes a value is
	// refused before anything is allocated from it.
	empty := New(r.Schema).Encode() // the schema, then a zero tuple count
	hostile := append(binary.AppendUvarint(empty[:len(empty)-1:len(empty)-1], 1000), make([]byte, 1500)...)
	if _, err := Decode(hostile); err == nil || !strings.Contains(err.Error(), "exceed remaining") {
		t.Fatalf("1000 two-value tuples over 1500 bytes: %v, want the count refused", err)
	}
}

func TestGenerateDefaults(t *testing.T) {
	r := Generate(GenConfig{Rows: 10, Seed: 1})
	if r.Len() != 10 {
		t.Fatalf("Len = %d", r.Len())
	}
	r2 := Generate(GenConfig{Rows: 10, Seed: 1})
	if !reflect.DeepEqual(r, r2) {
		t.Fatal("generation is not deterministic for equal seeds")
	}
	if Generate(GenConfig{Rows: 0, Seed: 1}).Len() != 0 {
		t.Fatal("empty generation broken")
	}
}

// BenchmarkInt64Column reads the key column of 2²⁰ tuples R(key, payload) —
// the point_single data — against Decode of the same bytes.
func BenchmarkInt64Column(b *testing.B) {
	rng := rand.New(rand.NewSource(2501))
	r := New(MustSchema("synthetic", Attr{Name: "key", Kind: KindInt64}, Attr{Name: "payload", Kind: KindString}))
	for range 1 << 20 {
		r.MustAppend(Tuple{Int(rng.Int63n(1 << 22)), Str("")})
	}
	enc := r.Encode()
	b.Run("column", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := Int64Column(enc, "key"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
