package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

// decodeReference is Decode as it stood before the two-pass rewrite: one
// AddEdge per edge, then Normalize. It is the oracle the rewrite is held to —
// same graph, same error string — on canonical and non-canonical input alike.
func decodeReference(buf []byte) (*Graph, error) {
	off := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return 0, fmt.Errorf("graph: corrupt varint at offset %d", off)
		}
		off += n
		return v, nil
	}
	n64, err := next()
	if err != nil {
		return nil, err
	}
	if n64 > MaxDecodeVertices {
		return nil, fmt.Errorf("graph: vertex count %d exceeds decode limit %d", n64, uint64(MaxDecodeVertices))
	}
	if off >= len(buf) {
		return nil, fmt.Errorf("graph: truncated before orientation flag")
	}
	directed := buf[off] == 1
	off++
	g := New(int(n64), directed)
	m64, err := next()
	if err != nil {
		return nil, err
	}
	if m64 > uint64(len(buf)-off)/2 {
		return nil, fmt.Errorf("graph: edge count %d exceeds remaining %d bytes", m64, len(buf)-off)
	}
	for i := uint64(0); i < m64; i++ {
		u, err := next()
		if err != nil {
			return nil, err
		}
		v, err := next()
		if err != nil {
			return nil, err
		}
		if err := g.AddEdge(int(u), int(v)); err != nil {
			return nil, err
		}
	}
	if off != len(buf) {
		return nil, fmt.Errorf("graph: %d trailing bytes", len(buf)-off)
	}
	g.Normalize()
	return g, nil
}

// rawGraph writes the wire format by hand, so a case can be non-canonical.
func rawGraph(n uint64, flag byte, m uint64, edges ...uint64) []byte {
	b := binary.AppendUvarint(nil, n)
	b = append(b, flag)
	b = binary.AppendUvarint(b, m)
	for _, x := range edges {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

// checkDecodeContract holds Decode to the reference on one input: the same
// error string or the same graph, and a canonical re-encoding either way.
func checkDecodeContract(t *testing.T, b []byte) (*Graph, error) {
	t.Helper()
	got, err := Decode(b)
	want, wantErr := decodeReference(b)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("Decode(%x): error %v, reference %v", b, err, wantErr)
	}
	if err != nil {
		return nil, err
	}
	if got.N() != want.N() || got.M() != want.M() || got.Directed() != want.Directed() || !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("Decode(%x): graph differs from the reference (n %d/%d, m %d/%d)", b, got.N(), want.N(), got.M(), want.M())
	}
	for x := 0; x < got.N(); x++ {
		if !reflect.DeepEqual(got.Neighbors(x), want.Neighbors(x)) {
			t.Fatalf("Decode(%x): adjacency of %d is %v, reference %v", b, x, got.Neighbors(x), want.Neighbors(x))
		}
	}
	enc := got.Encode()
	if !bytes.Equal(enc, want.Encode()) {
		t.Fatalf("Decode(%x).Encode() differs from the reference's", b)
	}
	again, err := Decode(enc)
	if err != nil || !bytes.Equal(again.Encode(), enc) {
		t.Fatalf("Decode(%x).Encode() is not a fixed point (%v)", b, err)
	}
	return got, nil
}

// TestDecodeContract pins what Decode accepts beyond Encode's own output —
// edges in any order, repeats, either orientation — and the exact error for
// everything it refuses.
func TestDecodeContract(t *testing.T) {
	accepted := []struct {
		name  string
		in    []byte
		m     int
		edges [][2]int
	}{
		{"canonical", rawGraph(4, 1, 3, 0, 1, 1, 2, 2, 3), 3, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{"unsorted sources", rawGraph(4, 1, 3, 2, 3, 0, 1, 1, 2), 3, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{"reversed targets", rawGraph(4, 1, 3, 0, 3, 0, 2, 0, 1), 3, [][2]int{{0, 1}, {0, 2}, {0, 3}}},
		{"duplicate edges", rawGraph(3, 1, 4, 0, 1, 0, 1, 1, 2, 0, 1), 2, [][2]int{{0, 1}, {1, 2}}},
		{"undirected canonical", rawGraph(3, 0, 2, 0, 1, 1, 2), 2, [][2]int{{0, 1}, {1, 2}}},
		{"undirected, larger endpoint first", rawGraph(3, 0, 2, 2, 1, 1, 0), 2, [][2]int{{0, 1}, {1, 2}}},
		{"undirected, both orientations of one edge", rawGraph(3, 0, 2, 0, 1, 1, 0), 1, [][2]int{{0, 1}}},
		{"orientation flag other than 1 is undirected", rawGraph(2, 7, 1, 0, 1), 1, [][2]int{{0, 1}}},
		{"no vertices", rawGraph(0, 1, 0), 0, nil},
		{"isolated vertices only", rawGraph(5, 0, 0), 0, nil},
	}
	for _, tc := range accepted {
		g, err := checkDecodeContract(t, tc.in)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if g.M() != tc.m || !reflect.DeepEqual(g.Edges(), tc.edges) {
			t.Errorf("%s: M() = %d, edges %v; want %d, %v", tc.name, g.M(), g.Edges(), tc.m, tc.edges)
		}
	}

	refused := []struct {
		name string
		in   []byte
		err  string
	}{
		{"empty", nil, "graph: corrupt varint at offset 0"},
		{"corrupt vertex-count varint", []byte{0x80}, "graph: corrupt varint at offset 0"},
		{"vertex count over the limit", rawGraph(MaxDecodeVertices+1, 1, 0), "graph: vertex count 16777217 exceeds decode limit 16777216"},
		{"truncated before the flag", []byte{4}, "graph: truncated before orientation flag"},
		{"truncated before the edge count", []byte{4, 1}, "graph: corrupt varint at offset 2"},
		{"edge count beyond the buffer", rawGraph(4, 1, 3, 0, 1), "graph: edge count 3 exceeds remaining 2 bytes"},
		{"truncated inside an edge", []byte{4, 1, 1, 0, 0x80}, "graph: corrupt varint at offset 4"},
		{"overlong varint in an edge", append([]byte{4, 1, 1, 0}, bytes.Repeat([]byte{0xff}, 11)...), "graph: corrupt varint at offset 4"},
		{"source out of range", rawGraph(4, 1, 1, 4, 0), "graph: edge (4,0) out of range [0,4)"},
		{"target out of range", rawGraph(4, 1, 1, 0, 9), "graph: edge (0,9) out of range [0,4)"},
		{"endpoint past int64", rawGraph(4, 1, 1, 1<<63, 0), "graph: edge (-9223372036854775808,0) out of range [0,4)"},
		{"edge in a graph of no vertices", rawGraph(0, 1, 1, 0, 0), "graph: edge (0,0) out of range [0,0)"},
		{"self-loop", rawGraph(4, 1, 2, 0, 1, 2, 2), "graph: self-loop at 2"},
		{"first bad edge wins", rawGraph(4, 1, 2, 3, 3, 9, 0), "graph: self-loop at 3"},
		{"trailing bytes", append(rawGraph(4, 1, 1, 0, 1), 0, 0), "graph: 2 trailing bytes"},
		{"bad edge before trailing bytes", append(rawGraph(4, 1, 1, 0, 4), 0), "graph: edge (0,4) out of range [0,4)"},
	}
	for _, tc := range refused {
		_, err := checkDecodeContract(t, tc.in)
		if err == nil || err.Error() != tc.err {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
		}
	}
}

// TestDecodedGraphStaysMutable: the adjacency lists of a decoded graph are
// cut from one array; growing one must not write into its neighbour's.
func TestDecodedGraphStaysMutable(t *testing.T) {
	g, err := Decode(rawGraph(4, 1, 3, 0, 1, 1, 2, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(0, 3)
	g.MustAddEdge(0, 2)
	if err := g.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 1}, {0, 2}, {0, 3}, {2, 3}}
	if !reflect.DeepEqual(g.Edges(), want) || g.M() != 4 {
		t.Fatalf("edges %v (M %d), want %v", g.Edges(), g.M(), want)
	}
}

// encodeReference is Encode as it was: the Edges slice grown pair by pair,
// then the bytes grown from nil.
func encodeReference(g *Graph) []byte {
	edges := g.Edges()
	b := binary.AppendUvarint(nil, uint64(g.N()))
	if g.Directed() {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(edges)))
	for _, e := range edges {
		b = binary.AppendUvarint(b, uint64(e[0]))
		b = binary.AppendUvarint(b, uint64(e[1]))
	}
	return b
}

// TestEncodeOneSizedBuffer: Encode writes from the adjacency lists into one
// buffer sized up front — the same bytes as the reference on every closure
// shape (vertex ids on both sides of each varint width), in at most two
// allocations, with nothing spare behind the result.
func TestEncodeOneSizedBuffer(t *testing.T) {
	shapes := closureShapes(130)
	shapes["three-byte-ids"] = RandomDirected(20000, 400, 9)
	shapes["unnormalized"] = New(70, false)
	for _, e := range [][2]int{{69, 3}, {3, 69}, {3, 1}, {1, 0}, {5, 69}, {3, 1}} {
		shapes["unnormalized"].MustAddEdge(e[0], e[1])
	}
	for name, g := range shapes {
		got := g.Encode()
		if !bytes.Equal(got, encodeReference(g)) {
			t.Fatalf("%s: Encode differs from the Edges-then-append reference", name)
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: Encode sized %d bytes for %d", name, cap(got), len(got))
		}
		if allocs := testing.AllocsPerRun(20, func() { g.Encode() }); allocs > 2 {
			t.Fatalf("%s: Encode allocates %.0f times, want at most 2", name, allocs)
		}
	}
}

// FuzzDecodeGraph: on any bytes, Decode and the AddEdge-per-edge reference
// agree on the error string or on the graph, and the re-encoding is canonical.
func FuzzDecodeGraph(f *testing.F) {
	for _, g := range kernelGraphs() {
		f.Add(g.Encode())
	}
	f.Add(rawGraph(4, 1, 3, 2, 3, 0, 1, 1, 2))
	f.Add(rawGraph(3, 1, 4, 0, 1, 0, 1, 1, 2, 0, 1))
	f.Add(rawGraph(3, 0, 2, 0, 1, 1, 0))
	f.Add(rawGraph(4, 1, 2, 0, 1, 2, 2))
	f.Add(append(rawGraph(4, 1, 1, 0, 1), 0))
	f.Add([]byte{4, 1, 1, 0, 0x80})
	f.Fuzz(func(t *testing.T, b []byte) {
		if n, k := binary.Uvarint(b); k > 0 && n > 1<<16 && n <= MaxDecodeVertices {
			return // a legal but huge vertex count: hundreds of MB of headers per input
		}
		checkDecodeContract(t, b)
	})
}
