package main

import (
	"math/rand"
	"time"

	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/server"
)

// spec is one workload: a dataset, the server configuration it is served
// under, and the traffic sent to it. Sizes were chosen on the 2-vCPU box the
// benchmark was written on; bench/README.md records why each mix exists.
type spec struct {
	name string
	why  string
	// scheme and registerQuery address POST /v1/datasets.
	scheme        string
	registerQuery string
	// The server is configured only through what `pitract serve` flags set.
	cacheBytes int64
	limits     server.Limits
	// checkpointEvery > 0 puts the registry on a real directory under the
	// out dir, checkpointing at that cadence; 0 keeps it in memory.
	checkpointEvery int
	// batch is the number of queries per request; 1 selects /v1/query.
	batch int
	// writer makes connection 1 a PATCH writer instead of a second reader.
	writer bool
	// gen builds the dataset and the read traffic from the seed.
	gen func(rng *rand.Rand, quick bool) dataset
}

// dataset is the generated input of one workload: what is registered, what
// is asked, and — kept apart from both, for the oracle — the raw form the
// expected verdicts are computed from without Π.
type dataset struct {
	data []byte // registration payload (the scheme's instance encoding)
	// queries are the distinct query encodings, plan the request sequence as
	// indices into queries (len(plan) is a multiple of the batch size).
	queries [][]byte
	plan    []int
	// Exactly one of keys and g is set: the raw data the oracle reads.
	keys  map[int64]struct{}
	qkeys []int64 // qkeys[i] is the key queries[i] asks for
	space int64   // initial keys lie in [0, space), PATCHed keys in [space, 2·space)
	g     *graph.Graph
	pairs [][2]int // pairs[i] is the node pair queries[i] asks for
}

// request is one pre-rendered HTTP body and the verdicts the oracle expects.
type request struct {
	body []byte
	want []bool
}

const datasetID = "bench"

var specs = []*spec{
	{
		name:   "point_single",
		why:    "The probe is under 1% of a single-key request, so server (decode, admission, breaker, deadline guard, encode) and net/http do the work; the only mix with the deadline guard armed.",
		scheme: "point-selection/sorted-keys",
		limits: server.Limits{MaxInFlight: 64, MaxInFlightPerDataset: 16, QueryBudget: 250 * time.Millisecond},
		batch:  1,
		gen:    genKeys,
	},
	{
		name:       "closure_batch_cached",
		why:        "1024 cache lookups and a 1024-element base64/JSON decode dominate a 46 ns probe: where cache placement and batch wire decode show; the universe fits the cache, no deadline guard.",
		scheme:     "reachability/closure-matrix",
		cacheBytes: 64 << 20,
		batch:      1024,
		gen: func(rng *rand.Rand, quick bool) dataset {
			n, m, universe, bodies := 4096, 16384, 32768, 256
			if quick {
				n, m, universe, bodies = 256, 1024, 2048, 8
			}
			g := graph.RandomDirected(n, m, rng.Int63())
			d := pairDataset(rng, g, universe)
			d.plan = make([]int, bodies*1024)
			for i := range d.plan {
				d.plan[i] = rng.Intn(universe)
			}
			return d
		},
	},
	{
		name:   "bfs_zipf_cached",
		why:    "The cache used as built: a miss is a whole BFS and the zipf universe is larger than the cache, so hits, misses and evictions all stay in the window; caching less shows here as a loss.",
		scheme: "reachability/bfs-per-query",
		// Room for about a quarter of the 16384-pair universe (an entry
		// costs ~120 bytes), which a zipf(1.1) stream hits ~90% of the time.
		cacheBytes: 512 << 10,
		batch:      1,
		gen: func(rng *rand.Rand, quick bool) dataset {
			n, m, universe, length := 16384, 65536, 16384, 1<<17
			if quick {
				n, m, universe, length = 256, 1024, 16384, 1<<12
			}
			g := graph.RandomDirected(n, m, rng.Int63())
			d := pairDataset(rng, g, universe)
			z := rand.NewZipf(rng, 1.1, 1, uint64(universe-1))
			d.plan = make([]int, length)
			for i := range d.plan {
				d.plan[i] = int(z.Uint64())
			}
			return d
		},
	},
	{
		name:          "shard_reach_batch",
		why:           "Fan-out and portal merge cost hundreds of allocations per answer against a 46 ns unsharded probe, so shard is nearly all of the request; no other mix enters shard.",
		scheme:        "reachability/closure-matrix",
		registerQuery: "?shards=4&partitioner=range",
		batch:         256,
		gen: func(rng *rand.Rand, quick bool) dataset {
			c, s, cross, bodies := 8, 256, 512, 256
			if quick {
				c, s, cross, bodies = 8, 32, 64, 8
			}
			g := graph.CommunityGraph(c, s, cross, rng.Int63())
			n := g.N()
			d := dataset{g: g, data: g.Encode()}
			d.plan = make([]int, bodies*256)
			for i := range d.plan {
				u, v := rng.Intn(n), rng.Intn(n)
				d.pairs = append(d.pairs, [2]int{u, v})
				d.queries = append(d.queries, schemes.NodePairQuery(u, v))
				d.plan[i] = i
			}
			return d
		},
	},
	{
		name:            "patch_mixed",
		why:             "The only mix where the delta log (append + fsync), the ApplyDelta merge and the checkpoint work; reads run beside the writes, so a write gain bought by holding the lock longer shows as a read loss.",
		scheme:          "point-selection/sorted-keys",
		checkpointEvery: 16,
		batch:           1,
		writer:          true,
		gen:             genKeys,
	},
}

// queryPath is the endpoint the workload's reads go to.
func (sp *spec) queryPath() string {
	if sp.batch > 1 {
		return "/v1/query/batch"
	}
	return "/v1/query"
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// genKeys is the dataset of the two sorted-key workloads: 2^20 keys below
// 2^22 and a pool of 2^16 uniformly random single-key queries over the same
// range (about a fifth are present). PATCHed keys live above that range, so
// the reader's verdicts never depend on how far the writer has got.
func genKeys(rng *rand.Rand, quick bool) dataset {
	rows, pool := 1<<20, 1<<16
	if quick {
		rows, pool = 1<<12, 1<<10
	}
	space := int64(rows) * 4
	list := make([]int64, rows)
	d := dataset{keys: make(map[int64]struct{}, rows), space: space}
	for i := range list {
		list[i] = rng.Int63n(space)
		d.keys[list[i]] = struct{}{}
	}
	d.data = schemes.RelationFromKeys(list)
	d.plan = make([]int, pool)
	for i := range d.plan {
		k := rng.Int63n(space)
		d.qkeys = append(d.qkeys, k)
		d.queries = append(d.queries, schemes.PointQuery(k))
		d.plan[i] = i
	}
	return d
}

// pairDataset draws a universe of distinct-by-index node pairs over g. The
// sources come from a pool of at most 1024 vertices so the oracle needs one
// BFS per source, not one per pair; the server cannot tell.
func pairDataset(rng *rand.Rand, g *graph.Graph, universe int) dataset {
	n := g.N()
	sources := make([]int, 1024)
	for i := range sources {
		sources[i] = rng.Intn(n)
	}
	d := dataset{g: g, data: g.Encode()}
	for i := 0; i < universe; i++ {
		u, v := sources[rng.Intn(len(sources))], rng.Intn(n)
		d.pairs = append(d.pairs, [2]int{u, v})
		d.queries = append(d.queries, schemes.NodePairQuery(u, v))
	}
	return d
}

// oracle computes the expected verdict of every distinct query from the raw
// data alone — a Go set for keys, BFS over the graph for node pairs — so no
// code that builds or probes Π takes part in checking it.
func (d *dataset) oracle() []bool {
	want := make([]bool, len(d.queries))
	if d.keys != nil {
		for i, k := range d.qkeys {
			_, want[i] = d.keys[k]
		}
		return want
	}
	reach := map[int][]int{}
	for i, p := range d.pairs {
		dist, ok := reach[p[0]]
		if !ok {
			_, dist = d.g.BFS(p[0])
			reach[p[0]] = dist
		}
		want[i] = dist[p[1]] >= 0
	}
	return want
}

// requests renders the plan into HTTP bodies of batch queries each, paired
// with the oracle's verdicts.
func (d *dataset) requests(batch int, want []bool) []request {
	reqs := make([]request, 0, len(d.plan)/batch)
	for at := 0; at+batch <= len(d.plan); at += batch {
		idx := d.plan[at : at+batch]
		r := request{want: make([]bool, batch)}
		for j, qi := range idx {
			r.want[j] = want[qi]
		}
		if batch == 1 {
			r.body = mustJSON(server.QueryRequest{Dataset: datasetID, Query: d.queries[idx[0]]})
		} else {
			qs := make([][]byte, batch)
			for j, qi := range idx {
				qs[j] = d.queries[qi]
			}
			r.body = mustJSON(server.BatchRequest{Dataset: datasetID, Queries: qs})
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// Writer traffic of patch_mixed: PATCH i inserts one 64-key batch of fresh
// keys; from the 9th PATCH on inserts alternate with a delete of the oldest
// live batch, so |D| stays level and the merge cost does not drift.
const patchKeys = 64

// patchBatch returns the keys of insert batch b: fresh keys above the
// initial key space, spread by an odd multiplier so inserts land all over
// the tail rather than at its end.
func patchBatch(space int64, b int) []int64 {
	keys := make([]int64, patchKeys)
	for j := range keys {
		keys[j] = space + (int64(b*patchKeys+j)*2654435761)%space
	}
	return keys
}

// patchPlan says what PATCH i does: insert batch b, or delete batch b.
func patchPlan(i int) (b int, del bool) {
	if i < 8 {
		return i, false
	}
	k := i - 8
	if k%2 == 0 {
		return k / 2, true
	}
	return 8 + k/2, false
}

// patchDelta is the one delta PATCH i carries, in the scheme's encoding.
func patchDelta(space int64, i int) []byte {
	b, del := patchPlan(i)
	if del {
		return schemes.KeysDeleteDelta(patchBatch(space, b))
	}
	return schemes.KeysDelta(patchBatch(space, b))
}

func patchBody(space int64, i int) []byte {
	return mustJSON(server.PatchRequest{Deltas: [][]byte{patchDelta(space, i)}})
}
