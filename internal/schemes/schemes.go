// Package schemes instantiates the paper's case studies as executable
// Π-tractability witnesses over the core framework: each scheme is a PTIME
// preprocessing function Π: Σ* → Σ* paired with an answering procedure that
// reads the preprocessed string with random access in polylog (or constant)
// time. Baseline schemes — correct but with polynomial-time answering — are
// provided alongside, so experiments can measure the gap the paper is
// about.
//
// Preprocessed byte formats are laid out for probing so that answering really
// is sublinear over the string (no per-query decode): a sorted key file is
// one Elias–Fano sequence probed in its own bytes (keys.go), a position file
// n×4-byte records, a closure a class id per vertex and a bit matrix over the
// classes behind an 8-byte header.
package schemes

import (
	"encoding/binary"
	"fmt"

	"pitract/internal/bds"
	"pitract/internal/circuit"
	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/listsearch"
	"pitract/internal/relation"
)

// Catalog returns the schemes served for registration — every decision
// scheme from the paper's case studies that answers against a preprocessed
// store — in one list; the server's catalog, MaintainableSchemes and
// IncrementalForScheme all read it.
func Catalog() []*core.Scheme {
	return []*core.Scheme{
		PointSelectionScheme(),
		PointSelectionScanScheme(),
		ListMembershipScheme(),
		ReachabilityScheme(),
		ReachabilityLabelsScheme(),
		ReachabilityBFSScheme(),
		BDSScheme(),
		CVPGateValueScheme(),
	}
}

// --- Example 1 / §4(1): point and range selection -----------------------------

// PointQuery encodes the Boolean point-selection query (A, c) on the fixed
// key attribute.
func PointQuery(c int64) []byte { return core.EncodeUint64(uint64(c) + (1 << 63)) }

// DecodePointQuery parses a PointQuery back into its key — the codec's
// other half, exported so routing layers (internal/shard) can inspect
// queries without re-specifying the wire format.
func DecodePointQuery(q []byte) (int64, error) {
	var vs [1]uint64
	if err := core.DecodeUint64Into(q, vs[:]); err != nil {
		return 0, err
	}
	return int64(vs[0] - (1 << 63)), nil
}

// RangeQuery encodes the Boolean range-selection query (A, [lo, hi]).
func RangeQuery(lo, hi int64) []byte {
	return core.EncodeUint64(uint64(lo)+(1<<63), uint64(hi)+(1<<63))
}

// DecodeRangeQuery parses a RangeQuery back into its bounds.
func DecodeRangeQuery(q []byte) (lo, hi int64, err error) {
	var vs [2]uint64
	if err := core.DecodeUint64Into(q, vs[:]); err != nil {
		return 0, 0, err
	}
	return int64(vs[0] - (1 << 63)), int64(vs[1] - (1 << 63)), nil
}

// DecodeSelection parses a query of either selection — a PointQuery c, read
// as the range [c, c], or a RangeQuery [lo, hi] — for the key file's probe
// and its shard route. Any other string is refused, naming both forms.
func DecodeSelection(q []byte) (lo, hi int64, err error) {
	a, k := binary.Uvarint(q)
	b, k2 := a, 0
	if k > 0 && k < len(q) {
		b, k2 = binary.Uvarint(q[k:])
	}
	if k <= 0 || k2 < 0 || k+k2 != len(q) {
		return 0, 0, fmt.Errorf("schemes: a %d-byte query is neither a point query (one key) nor a range query (two keys)", len(q))
	}
	return int64(a - 1<<63), int64(b - 1<<63), nil
}

// SelectionLanguage is S1 from Example 3: ⟨D, (A, c)⟩ with D a relation and
// the answer "∃t ∈ D: t[key] = c", decided by the reference scan.
func SelectionLanguage() core.Language {
	return core.LanguageFunc{
		LangName: "S1-point-selection",
		Decide: func(d, q []byte) (bool, error) {
			rel, err := relation.Decode(d)
			if err != nil {
				return false, err
			}
			c, err := DecodePointQuery(q)
			if err != nil {
				return false, err
			}
			return rel.ScanPointSelect("key", relation.Int(c))
		},
	}
}

// PointSelectionScheme preprocesses the relation into a sorted key file and
// answers both selections of Example 1 by one probe of it — a PointQuery
// (A, c) and a RangeQuery (A, [lo, hi]): the B⁺-tree access path in string
// form. Preprocessing is a few linear passes (the key column
// read out of D's bytes whole tuples at a time, sorted, laid out), then a
// sample, a few words of high bits and a search of one bucket per answer.
// Each pass runs in a few parts per P over a D of half a megabyte and more
// (internal/parts), and Π is the bytes one part lays out.
//
// The sort (dedupSorted) is O(|D|) through a bitmap when the keys span fewer
// than 64 values a key, and O(|D|·b) otherwise, b ≤ 8 the key bytes that
// vary — the bound the PreprocessNote of this scheme and list membership
// states.
func PointSelectionScheme() *core.Scheme {
	return &core.Scheme{
		SchemeName: "point-selection/sorted-keys",
		Preprocess: func(d []byte) ([]byte, error) {
			keys, err := relation.Int64Column(d, "key")
			if err != nil {
				return nil, err
			}
			return keyFileBytes(dedupSorted(keys))
		},
		Prepare:        prepareKeys,
		ApplyDelta:     applyKeysDelta,
		ApplyUpdate:    applyRelationKeys,
		PreprocessNote: "O(|D|) through the bitmap, or O(|D|·b) by radix sort, b ≤ 8 varying key bytes",
		AnswerNote:     keysAnswerNote,
	}
}

// keysAnswerNote is the probe's cost over a sorted key file.
const keysAnswerNote = "one sample, ≤ 256 buckets of high bits, a search of one bucket"

// PointSelectionScanScheme is the no-preprocessing baseline: Π is the
// identity and every query scans D.
func PointSelectionScanScheme() *core.Scheme {
	return &core.Scheme{
		SchemeName:     "point-selection/scan",
		Preprocess:     func(d []byte) ([]byte, error) { return d, nil },
		Prepare:        preparePointScan,
		PreprocessNote: "O(1)",
		AnswerNote:     "O(|D|) per query",
		Traversal:      true,
	}
}

// RangeSelectionLanguage decides range selections by the reference scan:
// the oracle of PointSelectionScheme's RangeQuery.
func RangeSelectionLanguage() core.Language {
	return core.LanguageFunc{
		LangName: "range-selection",
		Decide: func(d, q []byte) (bool, error) {
			rel, err := relation.Decode(d)
			if err != nil {
				return false, err
			}
			lo, hi, err := DecodeRangeQuery(q)
			if err != nil {
				return false, err
			}
			return rel.ScanRangeSelect("key", relation.Int(lo), relation.Int(hi))
		},
	}
}

// --- §4(2): searching in a list -------------------------------------------------

// EncodeList serializes an int64 list as the data part of problem L1.
func EncodeList(list []int64) []byte {
	b := binary.AppendUvarint(nil, uint64(len(list)))
	for _, v := range list {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// DecodeList parses EncodeList output.
func DecodeList(d []byte) ([]int64, error) {
	n, k := binary.Uvarint(d)
	if k <= 0 {
		return nil, fmt.Errorf("schemes: corrupt list header")
	}
	off := k
	// Each entry takes at least one byte, so a count beyond the remaining
	// buffer is corrupt — reject before allocating (the serve path hands
	// this decoder attacker-controlled bytes).
	if n > uint64(len(d)-off) {
		return nil, fmt.Errorf("schemes: list count %d exceeds remaining %d bytes", n, len(d)-off)
	}
	out := make([]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		v, k := binary.Varint(d[off:])
		if k <= 0 {
			return nil, fmt.Errorf("schemes: corrupt list entry %d", i)
		}
		off += k
		out = append(out, v)
	}
	if off != len(d) {
		return nil, fmt.Errorf("schemes: %d trailing bytes", len(d)-off)
	}
	return out, nil
}

// ListMembershipLanguage is S(L1,Υ1): ⟨M, e⟩ with the answer "e ∈ M".
func ListMembershipLanguage() core.Language {
	return core.LanguageFunc{
		LangName: "L1-list-membership",
		Decide: func(d, q []byte) (bool, error) {
			list, err := DecodeList(d)
			if err != nil {
				return false, err
			}
			e, err := DecodePointQuery(q)
			if err != nil {
				return false, err
			}
			return listsearch.Scan(list, e), nil
		},
	}
}

// ListMembershipScheme sorts M once, then answers by searching the sorted
// keys — §4(2), over the point scheme's key file: membership is a point probe.
func ListMembershipScheme() *core.Scheme {
	return &core.Scheme{
		SchemeName: "list-membership/sorted",
		Preprocess: func(d []byte) ([]byte, error) {
			list, err := DecodeList(d)
			if err != nil {
				return nil, err
			}
			return keyFileBytes(dedupSorted(list))
		},
		Prepare:        prepareKeys,
		ApplyDelta:     applyKeysDelta,
		ApplyUpdate:    applyListKeys,
		PreprocessNote: "O(|M|) through the bitmap, or O(|M|·b) by radix sort, b ≤ 8 varying key bytes",
		AnswerNote:     keysAnswerNote,
	}
}

// RelationFromKeys builds (and encodes) a single-int64-column relation over
// the schema synthetic(key, payload) from a key list. It is the α map of
// the list-membership ≤NC_F point-selection reduction.
func RelationFromKeys(keys []int64) []byte {
	rel := relation.New(relation.MustSchema("synthetic",
		relation.Attr{Name: "key", Kind: relation.KindInt64},
		relation.Attr{Name: "payload", Kind: relation.KindString},
	))
	for _, k := range keys {
		rel.MustAppend(relation.Tuple{relation.Int(k), relation.Str("")})
	}
	return rel.Encode()
}

// --- Example 3: reachability ------------------------------------------------------

// NodePairQuery encodes a (u, v) node-pair query.
func NodePairQuery(u, v int) []byte { return core.EncodeUint64(uint64(u), uint64(v)) }

// DecodeNodePairQuery parses a NodePairQuery back into (u, v).
func DecodeNodePairQuery(q []byte) (int, int, error) {
	var vs [2]uint64
	if err := core.DecodeUint64Into(q, vs[:]); err != nil {
		return 0, 0, err
	}
	return int(vs[0]), int(vs[1]), nil
}

// The closure payload:
//
//	header (8, big-endian) ‖ graph.CondensedClosure wire form ‖ arc file
//
// The header is the vertex count (at most graph.MaxDecodeVertices = 2²⁴, so
// the top bits are free) under four flag bits. Three of them name the layout
// and are required — a payload without all three was written by a version
// that stored n² bits, stored them without the graph, or stored 2-byte class
// ids beside the graph's uvarint encoding — and is refused with a
// core.LayoutError that says to re-register, never guessed at (a registry
// that finds one in its data dir quarantines the snapshot and rebuilds).
//
// The wire form is stored over the reachability-equivalence classes: a
// strongly connected component, or acyclic vertices with the same ancestors
// and the same descendants, whose own row bit is clear when there are two or
// more of them — so the probe answers u = v before it reads a bit. The layout
// bits did not change when acyclic vertices began to merge: a payload written
// before reads as a quotient in which nothing merged, with the same answers.
//
// The arc file is the graph (arcs.go): keys.go's sorted key file over the arc
// ids u·n + v, with u < v for an undirected edge. It is a function of the edge
// set, so Π stays a function of the graph.
const (
	// ClosureUndirectedFlag records that the closed graph was undirected.
	ClosureUndirectedFlag = uint64(1) << 63
	// ClosureGraphFlag says the source graph follows the closure.
	// Maintenance needs it: a closure bit says only that *some* path exists,
	// so neither an insertion that merges classes nor a retraction can be
	// decided from the closure alone.
	ClosureGraphFlag = uint64(1) << 62
	// closureCondensedFlag says the closure is stored over its condensation
	// (class[v] + a k×k matrix), not as n² bits.
	closureCondensedFlag = uint64(1) << 61
	// closureArcsFlag says the class ids are packed to ⌈log₂ k⌉ bits and the
	// graph is an arc file, not graph.Encode bytes.
	closureArcsFlag = uint64(1) << 60

	closureLayout = ClosureGraphFlag | closureCondensedFlag | closureArcsFlag
)

// closureParts validates a closure payload's framing — header, layout bits,
// the condensed closure's class count against n, the arc file's header and
// its ids below n² — in O(1), and cuts it into the condensed closure's wire
// form and the arc file. What is inside either part is checked by its reader
// at use.
func closureParts(pd []byte) (n int, cond graph.CondensedWire, arcs ArcFile, err error) {
	if len(pd) < 8 {
		return 0, nil, ArcFile{}, fmt.Errorf("schemes: corrupt closure header")
	}
	raw := binary.BigEndian.Uint64(pd)
	if raw&closureLayout != closureLayout {
		return 0, nil, ArcFile{}, &core.LayoutError{Msg: fmt.Sprintf("schemes: closure payload (header %#x) is not in the condensed layout this version reads; re-register the dataset", raw)}
	}
	n64 := raw &^ (ClosureUndirectedFlag | closureLayout)
	if n64 > uint64(graph.MaxDecodeVertices) {
		return 0, nil, ArcFile{}, fmt.Errorf("schemes: closure payload is %d bytes, header claims n=%d", len(pd)-8, n64)
	}
	n = int(n64)
	if cond, err = graph.FrameCondensedClosure(pd[8:], n); err != nil {
		return 0, nil, ArcFile{}, fmt.Errorf("schemes: %w", err)
	}
	if arcs, err = ParseArcFile(pd[8+len(cond):], n, raw&ClosureUndirectedFlag == 0); err != nil {
		return 0, nil, ArcFile{}, err
	}
	return n, cond, arcs, nil
}

// closureBytes lays out Π: the header, the closure of g over its
// reachability-equivalence classes as graph.CondensedClosure.AppendWire emits
// it, and g's arc file. Classes are a function of the reachability relation,
// numbered canonically, and the arc file a function of the edge set, so the
// bytes are a function of g alone. CondensedClosure sizes the SCC rows
// before it allocates them — vertices cost a payload no bytes — and its
// refusal is pointed somewhere: a graph of too many strongly connected
// components for the matrix is what the labels scheme is for.
func closureBytes(g *graph.CSR) ([]byte, error) {
	c, err := g.CondensedClosure()
	if err != nil {
		return nil, fmt.Errorf("schemes: %w; register the graph under reachability/labels instead", err)
	}
	arcs, err := arcFileBytes(g)
	if err != nil {
		return nil, err
	}
	header := uint64(g.N()) | closureLayout
	if !g.Directed() {
		header |= ClosureUndirectedFlag
	}
	b := make([]byte, 0, 8+c.WireLen()+len(arcs)) // the whole Π: nothing below reallocates
	b = binary.BigEndian.AppendUint64(b, header)
	return append(c.AppendWire(b), arcs...), nil
}

// ReachabilityScheme precomputes the all-pairs matrix ("we may precompute a
// matrix that records the reachability between all pairs of nodes") — stored
// over the reachability-equivalence classes, one row per strongly connected
// component or per set of acyclic vertices with equal ancestors and
// descendants — and answers in O(1): u = v, or two class loads and a bit
// test.
func ReachabilityScheme() *core.Scheme {
	return &core.Scheme{
		SchemeName: "reachability/closure-matrix",
		Preprocess: func(d []byte) ([]byte, error) {
			g, err := graph.Decode(d)
			if err != nil {
				return nil, err
			}
			return closureBytes(g)
		},
		Prepare:        prepareClosure,
		ApplyDelta:     applyClosureDelta,
		ApplyUpdate:    applyEdgeToGraph,
		PreprocessNote: "O(|V|+|E|) condensation + O(|E_c|·k/64) word ORs over the k components + O(k²/64) to merge acyclic ones; Π is ⌈n·w/8⌉ + k_eq²/8 bytes over k_eq merged classes (w = ⌈log₂ k_eq⌉) + an Elias–Fano arc file",
		AnswerNote:     "O(1)",
	}
}

// ReachabilityBFSScheme is the baseline: no preprocessing, BFS per query.
func ReachabilityBFSScheme() *core.Scheme {
	return &core.Scheme{
		SchemeName:     "reachability/bfs-per-query",
		Preprocess:     func(d []byte) ([]byte, error) { return d, nil },
		Prepare:        prepareBFS,
		ApplyDelta:     applyEdgeToGraph,
		ApplyUpdate:    applyEdgeToGraph,
		PreprocessNote: "O(1)",
		AnswerNote:     "O(|V|+|E|) per query",
		Traversal:      true,
	}
}

// --- Example 2/5 and Figure 1: breadth-depth search --------------------------------

// BDSProblem is the decision problem: instances are pad(G, (u,v)); member
// iff u is visited before v.
func BDSProblem() *core.Problem {
	return &core.Problem{
		ProblemName: "BDS",
		Member: func(x []byte) (bool, error) {
			d, q, err := core.UnpadPair(x)
			if err != nil {
				return false, err
			}
			return BDSLanguage().Contains(d, q)
		},
	}
}

// BDSFactorization is Υ_BDS from Figure 1: π1 = G, π2 = (u, v).
func BDSFactorization() *core.Factorization {
	return &core.Factorization{
		FactName: "Υ_BDS",
		Pi1: func(x []byte) ([]byte, error) {
			d, _, err := core.UnpadPair(x)
			return d, err
		},
		Pi2: func(x []byte) ([]byte, error) {
			_, q, err := core.UnpadPair(x)
			return q, err
		},
		Rho: func(d, q []byte) ([]byte, error) { return core.PadPair(d, q), nil },
	}
}

// BDSLanguage is S(BDS, Υ_BDS): ⟨G, (u, v)⟩ decided by running the search.
func BDSLanguage() core.Language {
	return core.LanguageFunc{
		LangName: "S-BDS",
		Decide: func(d, q []byte) (bool, error) {
			g, err := graph.Decode(d)
			if err != nil {
				return false, err
			}
			u, v, err := DecodeNodePairQuery(q)
			if err != nil {
				return false, err
			}
			return bds.AnswerNaive(g.Graph(), u, v)
		},
	}
}

// posArrayBytes lays out pos[v] — v's position in the visit order — as
// n×4-byte records.
func posArrayBytes(order []int32) []byte {
	b := make([]byte, 4*len(order))
	for i, v := range order {
		binary.BigEndian.PutUint32(b[int(v)*4:], uint32(i))
	}
	return b
}

// BDSScheme is Example 5's preprocessing: run the search once, keep the
// visit order; answer "u before v" by two O(1) position reads.
func BDSScheme() *core.Scheme {
	return &core.Scheme{
		SchemeName: "bds/visit-order",
		Preprocess: func(d []byte) ([]byte, error) {
			g, err := graph.Decode(d)
			if err != nil {
				return nil, err
			}
			order, err := bds.Search(g.Graph())
			if err != nil {
				return nil, err
			}
			return posArrayBytes(order), nil
		},
		Prepare: core.ProbeInPlace(func(pd, q []byte) (bool, error) {
			u, v, err := DecodeNodePairQuery(q)
			if err != nil {
				return false, err
			}
			n := len(pd) / 4
			if u < 0 || u >= n || v < 0 || v >= n {
				return false, fmt.Errorf("schemes: node pair (%d,%d) out of range [0,%d)", u, v, n)
			}
			pu := binary.BigEndian.Uint32(pd[u*4:])
			pv := binary.BigEndian.Uint32(pd[v*4:])
			return pu < pv, nil
		}),
		PreprocessNote: "O(|V|+|E|)",
		AnswerNote:     "O(1) (O(log |M|) via binary search)",
	}
}

// BDSNoPreprocessScheme is Figure 1's Υ′: nothing is preprocessed (the data
// part is ε) and each query carries the whole instance, answered by a full
// fresh search — PTIME per query.
func BDSNoPreprocessScheme() *core.Scheme {
	return &core.Scheme{
		SchemeName: "bds/no-preprocessing",
		Preprocess: func(d []byte) ([]byte, error) {
			if len(d) != 0 {
				return nil, fmt.Errorf("schemes: Υ′ has an empty data part, got %d bytes", len(d))
			}
			return nil, nil
		},
		Prepare: core.ProbeInPlace(func(_, q []byte) (bool, error) {
			return BDSProblem().Member(q)
		}),
		PreprocessNote: "O(1) (nothing to preprocess)",
		AnswerNote:     "O(|V|+|E|) per query",
	}
}

// --- §4(8), §6, §7: the circuit value problem ----------------------------------

// GateQuery encodes the gate-value query "is gate g true".
func GateQuery(g int) []byte { return core.EncodeUint64(uint64(g)) }

// CVPGateLanguage: ⟨instance, g⟩ with the answer "gate g of the instance
// evaluates to true" — the query class obtained by factorizing CVP with the
// circuit-plus-inputs as data (the factorization Corollary 6 exploits).
func CVPGateLanguage() core.Language {
	return core.LanguageFunc{
		LangName: "CVP-gate-values",
		Decide: func(d, q []byte) (bool, error) {
			inst, err := circuit.DecodeInstance(d)
			if err != nil {
				return false, err
			}
			vs, err := core.DecodeUint64(q, 1)
			if err != nil {
				return false, err
			}
			g := int(vs[0])
			vals, err := inst.Circuit.EvalAll(inst.Inputs)
			if err != nil {
				return false, err
			}
			if g < 0 || g >= len(vals) {
				return false, fmt.Errorf("schemes: gate %d out of range [0,%d)", g, len(vals))
			}
			return vals[g], nil
		},
	}
}

// gateValueHeader parses and validates the gate-value header against the
// payload length, once, at Prepare (prepareCVPGates): a probe is then a
// bounds check and one byte read.
func gateValueHeader(pd []byte) (int, error) {
	if len(pd) < 8 {
		return 0, fmt.Errorf("schemes: corrupt gate-value header")
	}
	n := int(binary.BigEndian.Uint64(pd))
	if n < 0 || len(pd) != 8+(n+7)/8 {
		return 0, fmt.Errorf("schemes: gate-value payload is %d bytes, header claims n=%d", len(pd)-8, n)
	}
	return n, nil
}

// CVPGateValueScheme preprocesses a CVP instance by evaluating every gate
// once (PTIME) and answers gate queries by a single bit read (O(1)).
func CVPGateValueScheme() *core.Scheme {
	return &core.Scheme{
		SchemeName: "cvp/gate-values",
		Preprocess: func(d []byte) ([]byte, error) {
			inst, err := circuit.DecodeInstance(d)
			if err != nil {
				return nil, err
			}
			vals, err := inst.Circuit.EvalAll(inst.Inputs)
			if err != nil {
				return nil, err
			}
			b := make([]byte, 8+(len(vals)+7)/8)
			binary.BigEndian.PutUint64(b, uint64(len(vals)))
			for i, v := range vals {
				if v {
					b[8+i/8] |= 1 << (i % 8)
				}
			}
			return b, nil
		},
		Prepare:        prepareCVPGates,
		PreprocessNote: "O(|α|)",
		AnswerNote:     "O(1)",
	}
}

// CVPNoPreprocessScheme is Theorem 9's Υ0: the data part is ε, so
// preprocessing sees a constant and cannot help; every query carries a full
// CVP instance evaluated from scratch.
func CVPNoPreprocessScheme() *core.Scheme {
	return &core.Scheme{
		SchemeName: "cvp/empty-data",
		Preprocess: func(d []byte) ([]byte, error) {
			if len(d) != 0 {
				return nil, fmt.Errorf("schemes: Υ0 has an empty data part, got %d bytes", len(d))
			}
			return nil, nil
		},
		Prepare: core.ProbeInPlace(func(_, q []byte) (bool, error) {
			inst, err := circuit.DecodeInstance(q)
			if err != nil {
				return false, err
			}
			return inst.Eval()
		}),
		PreprocessNote: "O(1) (constant input)",
		AnswerNote:     "O(|α|) per query — preprocessing cannot help",
	}
}
