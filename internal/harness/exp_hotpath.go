package harness

// X6 measures the hot-path query engine: the same prepared store answered
// with and without the answer cache in front, under three request mixes —
// hot (one query repeated, the thundering-herd shape), zipf (a skewed mix
// where a small head of queries carries most of the traffic, the shape
// real serving sees), and cold (every query distinct, the cache's worst
// case). Two schemes bracket the answer-cost spectrum: the BFS-per-query
// baseline (one bidirectional search per answer, bounded by |D| — on these
// short-diameter community graphs it meets in the middle within a lookup's
// cost, so the memo only pays where searches run long) and the closure
// matrix (O(1) word probe — a cache hit costs several times the answer
// itself). The closure rows are the reason for the server's
// placement rule: Server.answerPath fronts only schemes that declare a
// per-query traversal (core.Scheme.Traversal), so over HTTP the closure
// dataset is never cached; X6 wraps both with store.NewCachedDataset
// directly, which wraps whatever it is handed, to keep measuring both
// sides of that rule. Every cached verdict is differentially checked
// against the uncached store in-line; any divergence fails the experiment.

import (
	"fmt"
	"math/rand"

	"pitract/internal/cache"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// x6Row is one measured (size, scheme, mix) cell.
type x6Row struct {
	n          int
	scheme     string
	mix        string
	queries    int
	uncachedNs float64
	cachedNs   float64
	hitPct     float64
}

// x6Schemes names the two schemes bracketing the answer-cost spectrum.
var x6Schemes = []string{"reachability/bfs-per-query", "reachability/closure-matrix"}

// x6Measure runs the workload and returns the measured rows.
func x6Measure(s Scale) ([]x6Row, error) {
	queryCount := 512
	if s == Full {
		queryCount = 2048
	}
	var rows []x6Row
	for _, n := range s.sizes([]int{96}, []int{192, 384}) {
		g := graph.CommunityGraph(6, n/6, n/2, int64(n))
		for _, schemeName := range x6Schemes {
			var scheme = schemes.ReachabilityBFSScheme()
			if schemeName == "reachability/closure-matrix" {
				scheme = schemes.ReachabilityScheme()
			}
			reg := store.NewRegistry("")
			st, err := reg.Register(fmt.Sprintf("x6-%d", n), scheme, g.Encode())
			if err != nil {
				return nil, fmt.Errorf("X6: register: %w", err)
			}

			// The query universe: distinct node pairs, seeded.
			rng := rand.New(rand.NewSource(int64(n) + 41))
			universe := make([][]byte, queryCount)
			for i := range universe {
				universe[i] = schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N()))
			}
			zipf := rand.NewZipf(rng, 1.4, 4, uint64(len(universe)-1))

			for _, mix := range []string{"hot", "zipf", "cold"} {
				queries := make([][]byte, queryCount)
				for i := range queries {
					switch mix {
					case "hot":
						queries[i] = universe[0]
					case "zipf":
						queries[i] = universe[zipf.Uint64()]
					default:
						queries[i] = universe[i]
					}
				}

				// Path 1: the uncached (prepared) store.
				uncached := make([]bool, queryCount)
				uncachedNs := timeOp(1, func() {
					for i, q := range queries {
						uncached[i], err = st.Answer(q)
						if err != nil {
							return
						}
					}
				})
				if err != nil {
					return nil, fmt.Errorf("X6: uncached answer: %w", err)
				}

				// Path 2: the same store behind a cold answer cache.
				c := cache.New(1 << 22)
				cd := store.NewCachedDataset(st, c)
				cachedAns := make([]bool, queryCount)
				cachedNs := timeOp(1, func() {
					for i, q := range queries {
						cachedAns[i], err = cd.Answer(q)
						if err != nil {
							return
						}
					}
				})
				if err != nil {
					return nil, fmt.Errorf("X6: cached answer: %w", err)
				}
				for i := range queries {
					if uncached[i] != cachedAns[i] {
						return nil, fmt.Errorf("X6: %s/%s query %d diverged (uncached %v, cached %v)",
							schemeName, mix, i, uncached[i], cachedAns[i])
					}
				}
				cs := c.Stats()
				total := cs.Hits + cs.Misses + cs.Coalesced
				hitPct := 0.0
				if total > 0 {
					hitPct = 100 * float64(cs.Hits) / float64(total)
				}
				rows = append(rows, x6Row{
					n: n, scheme: schemeName, mix: mix, queries: queryCount,
					uncachedNs: uncachedNs, cachedNs: cachedNs, hitPct: hitPct,
				})
			}
		}
	}
	return rows, nil
}

// X6HotPath renders the hot-path cache experiment.
func X6HotPath(s Scale) (*Table, error) {
	t := &Table{
		ID:    "X6",
		Title: "hot-path answer cache: cached vs uncached QPS over hot/zipf/cold mixes",
		Columns: []string{"vertices", "scheme", "mix", "queries",
			"uncached qps", "cached qps", "speedup", "hit %"},
	}
	rows, err := x6Measure(s)
	if err != nil {
		return nil, err
	}
	var headline float64
	for _, r := range rows {
		qpsU := 1e9 * float64(r.queries) / r.uncachedNs
		qpsC := 1e9 * float64(r.queries) / r.cachedNs
		speedup := r.uncachedNs / r.cachedNs
		if r.scheme == "reachability/bfs-per-query" && r.mix == "hot" && speedup > headline {
			headline = speedup
		}
		t.AddRow(r.n, r.scheme, r.mix, r.queries, qpsU, qpsC, speedup, r.hitPct)
	}
	t.Note("every cached verdict differentially checked against the uncached store in-line")
	t.Note("repeated-query (bfs, hot) cached/uncached: %.1fx — a miss is one bidirectional search on the prepared CSR, which on a short-diameter graph this size costs about a cache lookup; the memo pays where a search runs long (worst case O(|V|+|E|), a path), which is what the scheme's Traversal declaration is about", headline)
	t.Note("closure rows are why the server caches only traversal schemes: a cache hit costs more than the O(1) word probe it would replace")
	return t, nil
}

// X6CachedSpeedup reports the headline repeated-query numbers — the
// BFS-per-query hot-mix speedup and its cache hit ratio — for
// BenchmarkX6's metrics, so the benchmark output tracks them from this PR on.
func X6CachedSpeedup(s Scale) (speedup, hitRatio float64, err error) {
	rows, err := x6Measure(s)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range rows {
		if r.scheme == "reachability/bfs-per-query" && r.mix == "hot" {
			if sp := r.uncachedNs / r.cachedNs; sp > speedup {
				speedup, hitRatio = sp, r.hitPct/100
			}
		}
	}
	return speedup, hitRatio, nil
}
