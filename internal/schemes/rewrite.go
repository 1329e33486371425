package schemes

// The query-rewriting scheme (remark below Definition 1, instantiated with
// §4(6) query answering using views): λ rewrites a point-selection query on
// D into a (view, key) probe against the materialized view directory, and
// answering touches only V(D).

import (
	"encoding/binary"
	"fmt"

	"pitract/internal/core"
	"pitract/internal/relation"
	"pitract/internal/views"
)

// Preprocessed layout of the materialized view set:
//
//	[0:8)  k — number of views
//	per view v: lo (8B biased), hi (8B biased), offset (8B), keys (8B)
//	then k segments of sorted biased uint64 keys
//
// keys is the relation's key column, ascending and distinct.
func materializeBytes(keys []int64, defs []views.Def) ([]byte, error) {
	k := len(defs)
	header := 8 + 32*k
	segments := make([][]int64, k)
	for i, def := range defs {
		if def.Hi < def.Lo {
			return nil, fmt.Errorf("schemes: view %q has empty range", def.Name)
		}
		for _, key := range keys {
			if def.Lo <= key && key <= def.Hi {
				segments[i] = append(segments[i], key)
			}
		}
	}
	size := header
	for _, seg := range segments {
		size += 8 * len(seg)
	}
	b := make([]byte, size)
	binary.BigEndian.PutUint64(b, uint64(k))
	off := header
	for i, def := range defs {
		base := 8 + 32*i
		binary.BigEndian.PutUint64(b[base:], uint64(def.Lo)+(1<<63))
		binary.BigEndian.PutUint64(b[base+8:], uint64(def.Hi)+(1<<63))
		binary.BigEndian.PutUint64(b[base+16:], uint64(off))
		binary.BigEndian.PutUint64(b[base+24:], uint64(len(segments[i])))
		for j, key := range segments[i] {
			binary.BigEndian.PutUint64(b[off+8*j:], uint64(key)+(1<<63))
		}
		off += 8 * len(segments[i])
	}
	return b, nil
}

// ViewRewritingScheme builds the §4(6) scheme for a fixed set of range
// views: Π materializes V(D); λ rewrites a point query (key = c) into
// (view index, c), failing when no view covers c — the paper's "answered
// using the views" precondition; answering binary-searches one view
// segment.
func ViewRewritingScheme(defs []views.Def) *core.RewritingScheme {
	return &core.RewritingScheme{
		SchemeName: "point-selection/views",
		Preprocess: func(d []byte) ([]byte, error) {
			keys, err := relation.Int64Column(d, "key")
			if err != nil {
				return nil, err
			}
			return materializeBytes(dedupSorted(keys), defs)
		},
		Rewrite: func(q []byte) ([]byte, error) {
			c, err := DecodePointQuery(q)
			if err != nil {
				return nil, err
			}
			for i, def := range defs {
				if def.Covers("key", c) {
					return core.EncodeUint64(uint64(i), uint64(c)+(1<<63)), nil
				}
			}
			return nil, &views.ErrNoView{Attr: "key", Value: c}
		},
		Answer: func(pd, lq []byte) (bool, error) {
			vs, err := core.DecodeUint64(lq, 2)
			if err != nil {
				return false, err
			}
			vi := int(vs[0])
			if len(pd) < 8 {
				return false, fmt.Errorf("schemes: corrupt view directory")
			}
			k := int(binary.BigEndian.Uint64(pd))
			if k < 0 || len(pd) < 8+32*k {
				return false, fmt.Errorf("schemes: view directory truncated (%d bytes for k=%d)", len(pd), k)
			}
			if vi < 0 || vi >= k {
				return false, fmt.Errorf("schemes: view %d out of range [0,%d)", vi, k)
			}
			base := 8 + 32*vi
			off := int(binary.BigEndian.Uint64(pd[base+16:]))
			cnt := int(binary.BigEndian.Uint64(pd[base+24:]))
			if off < 0 || cnt < 0 || off+8*cnt > len(pd) {
				return false, fmt.Errorf("schemes: view %d segment [%d,%d) overruns directory of %d bytes",
					vi, off, off+8*cnt, len(pd))
			}
			seg := pd[off : off+8*cnt]
			target := vs[1]
			lo, hi := 0, cnt
			for lo < hi {
				mid := (lo + hi) / 2
				v := binary.BigEndian.Uint64(seg[8*mid:])
				switch {
				case v == target:
					return true, nil
				case v < target:
					lo = mid + 1
				default:
					hi = mid
				}
			}
			return false, nil
		},
		PreprocessNote: "O(|D|·b + k·|D|), b the key bytes that vary (radix sort)",
		RewriteNote:    "O(k) per query",
		AnswerNote:     "O(log |V(D)|)",
	}
}
