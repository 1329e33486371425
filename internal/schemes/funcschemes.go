package schemes

// Function-problem schemes (§8(3) extension; see core.FuncScheme): the §4
// case studies that the paper states as search problems — RMQ ("Find
// RMQ_A(i,j)") and LCA ("Find LCA(u,v)") — witnessed at the byte level with
// random-access preprocessed strings, exactly like the Boolean schemes.

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/lca"
)

// RangeQueryIJ encodes an (i, j) index-range query.
func RangeQueryIJ(i, j int) []byte { return core.EncodeUint64(uint64(i), uint64(j)) }

// RMQ preprocessed layout (all fixed width for random access):
//
//	[0:8)                 n
//	[8:16)                levels L
//	[16:16+8n)            values, order-biased uint64
//	then L level blocks:  level k has n-2^k+1 uint32 argmin entries
func rmqTableBytes(a []int64) []byte {
	n := len(a)
	levels := 1
	if n > 1 {
		levels = bits.Len(uint(n)) // floor(log2 n)+1 levels
	}
	size := 16 + 8*n
	width := 1
	for k := 0; k < levels; k++ {
		size += 4 * (n - width + 1)
		width <<= 1
	}
	b := make([]byte, size)
	binary.BigEndian.PutUint64(b, uint64(n))
	binary.BigEndian.PutUint64(b[8:], uint64(levels))
	for i, v := range a {
		binary.BigEndian.PutUint64(b[16+8*i:], uint64(v)+(1<<63))
	}
	// Level 0: identity.
	off := 16 + 8*n
	prevOff := off
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(b[off+4*i:], uint32(i))
	}
	off += 4 * n
	prevWidth := 1
	for k := 1; k < levels; k++ {
		width := prevWidth << 1
		cnt := n - width + 1
		for i := 0; i < cnt; i++ {
			left := binary.BigEndian.Uint32(b[prevOff+4*i:])
			right := binary.BigEndian.Uint32(b[prevOff+4*(i+prevWidth):])
			pick := left
			lv := binary.BigEndian.Uint64(b[16+8*int(left):])
			rv := binary.BigEndian.Uint64(b[16+8*int(right):])
			if rv < lv {
				pick = right
			}
			binary.BigEndian.PutUint32(b[off+4*i:], pick)
		}
		prevOff = off
		prevWidth = width
		off += 4 * cnt
	}
	return b
}

// rmqTableQuery answers from the layout in O(1) reads.
func rmqTableQuery(pd []byte, i, j int) (int, error) {
	if len(pd) < 16 {
		return 0, fmt.Errorf("schemes: corrupt RMQ table header")
	}
	n := int(binary.BigEndian.Uint64(pd))
	levels := int(binary.BigEndian.Uint64(pd[8:]))
	if n < 1 || levels < 1 || levels > 63 {
		return 0, fmt.Errorf("schemes: corrupt RMQ table header (n=%d levels=%d)", n, levels)
	}
	want := 16 + 8*n
	for k, width := 0, 1; k < levels; k, width = k+1, width<<1 {
		if width > n {
			return 0, fmt.Errorf("schemes: RMQ level %d is wider than the array", k)
		}
		want += 4 * (n - width + 1)
	}
	if len(pd) != want {
		return 0, fmt.Errorf("schemes: RMQ table is %d bytes, header implies %d", len(pd), want)
	}
	if i < 0 || j >= n || i > j {
		return 0, fmt.Errorf("schemes: RMQ query [%d,%d] out of bounds for n=%d", i, j, n)
	}
	span := j - i + 1
	k := bits.Len(uint(span)) - 1 // floor(log2(span))
	if k >= levels {
		k = levels - 1
	}
	// Offset of level k block.
	off := 16 + 8*n
	width := 1
	for l := 0; l < k; l++ {
		off += 4 * (n - width + 1)
		width <<= 1
	}
	left := int(binary.BigEndian.Uint32(pd[off+4*i:]))
	right := int(binary.BigEndian.Uint32(pd[off+4*(j-width+1):]))
	lv := binary.BigEndian.Uint64(pd[16+8*left:])
	rv := binary.BigEndian.Uint64(pd[16+8*right:])
	if rv < lv || (rv == lv && right < left) {
		return right, nil
	}
	return left, nil
}

// RMQFuncScheme is the §4(3) search problem as a function scheme: sparse
// table preprocessing, O(1) answering, leftmost tie-breaking.
func RMQFuncScheme() *core.FuncScheme {
	return &core.FuncScheme{
		SchemeName: "rmq/sparse-table",
		Preprocess: func(d []byte) ([]byte, error) {
			a, err := DecodeList(d)
			if err != nil {
				return nil, err
			}
			if len(a) == 0 {
				return nil, fmt.Errorf("schemes: RMQ needs a non-empty array")
			}
			return rmqTableBytes(a), nil
		},
		Apply: func(pd, q []byte) ([]byte, error) {
			vs, err := core.DecodeUint64(q, 2)
			if err != nil {
				return nil, err
			}
			pos, err := rmqTableQuery(pd, int(vs[0]), int(vs[1]))
			if err != nil {
				return nil, err
			}
			return core.EncodeUint64(uint64(pos)), nil
		},
		PreprocessNote: "O(n log n)",
		ApplyNote:      "O(1)",
	}
}

func adjOf(g *graph.CSR) [][]int {
	adj := make([][]int, g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			adj[u] = append(adj[u], int(v))
		}
	}
	return adj
}

func encodeLCAAnswer(w int, ok bool) []byte {
	if !ok {
		return core.EncodeUint64(0)
	}
	return core.EncodeUint64(1, uint64(w))
}

// LCAFuncScheme preprocesses the all-pairs representative-LCA table
// (O(|G|³), §4(4) verbatim) into an n×n array of uint32 entries
// (representative+1, 0 for none) and answers in O(1).
func LCAFuncScheme() *core.FuncScheme {
	return &core.FuncScheme{
		SchemeName: "lca/all-pairs-table",
		Preprocess: func(d []byte) ([]byte, error) {
			g, err := graph.Decode(d)
			if err != nil {
				return nil, err
			}
			dag, err := lca.NewDAG(adjOf(g))
			if err != nil {
				return nil, err
			}
			n := dag.Len()
			b := make([]byte, 8+4*n*n)
			binary.BigEndian.PutUint64(b, uint64(n))
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					w, ok, err := dag.LCA(u, v)
					if err != nil {
						return nil, err
					}
					var enc uint32
					if ok {
						enc = uint32(w) + 1
					}
					binary.BigEndian.PutUint32(b[8+4*(u*n+v):], enc)
				}
			}
			return b, nil
		},
		Apply: func(pd, q []byte) ([]byte, error) {
			if len(pd) < 8 {
				return nil, fmt.Errorf("schemes: corrupt LCA table header")
			}
			n := int(binary.BigEndian.Uint64(pd))
			if n < 0 || len(pd) != 8+4*n*n {
				return nil, fmt.Errorf("schemes: LCA table is %d bytes, header claims n=%d", len(pd), n)
			}
			u, v, err := DecodeNodePairQuery(q)
			if err != nil {
				return nil, err
			}
			if u < 0 || u >= n || v < 0 || v >= n {
				return nil, fmt.Errorf("schemes: LCA query (%d,%d) out of range [0,%d)", u, v, n)
			}
			enc := binary.BigEndian.Uint32(pd[8+4*(u*n+v):])
			if enc == 0 {
				return encodeLCAAnswer(0, false), nil
			}
			return encodeLCAAnswer(int(enc-1), true), nil
		},
		PreprocessNote: "O(|G|³)",
		ApplyNote:      "O(1)",
	}
}
