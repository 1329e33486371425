package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// diffWorkload is one scheme with a dataset and a query mix that includes
// cross-shard answers.
type diffWorkload struct {
	name    string
	scheme  *core.Scheme
	data    []byte
	queries [][]byte
	// crossShard reports whether a query's answer can span shards under
	// the given assignment (used to assert the test actually covers the
	// interesting case).
	crossShard func(q []byte, asn Assignment) bool
}

// assembleWorkloads builds the workload list: five shardable schemes over
// three dataset kinds, with query mixes that include cross-shard answers,
// empty ranges, and malformed/out-of-range queries.
func assembleWorkloads(t *testing.T) []diffWorkload {
	t.Helper()
	rng := rand.New(rand.NewSource(4242))

	keys := make([]int64, 300)
	for i := range keys {
		keys[i] = int64(rng.Intn(1000))
	}
	relData := schemes.RelationFromKeys(keys)
	var pointQs [][]byte
	for i := 0; i < 120; i++ {
		pointQs = append(pointQs, schemes.PointQuery(int64(rng.Intn(1200)-100)))
	}
	var rangeQs [][]byte
	for i := 0; i < 120; i++ {
		lo := int64(rng.Intn(1100) - 50)
		rangeQs = append(rangeQs, schemes.RangeQuery(lo, lo+int64(rng.Intn(400))))
	}
	rangeQs = append(rangeQs,
		schemes.RangeQuery(0, 999),
		schemes.RangeQuery(10, 5),
		schemes.RangeQuery(-10, -1),
	)

	list := make([]int64, 250)
	for i := range list {
		list[i] = int64(rng.Intn(800))
	}
	var listQs [][]byte
	for i := 0; i < 120; i++ {
		listQs = append(listQs, schemes.PointQuery(int64(rng.Intn(1000)-100)))
	}

	g := graph.CommunityGraph(4, 16, 40, 7)
	var reachQs [][]byte
	for i := 0; i < 250; i++ {
		reachQs = append(reachQs, schemes.NodePairQuery(rng.Intn(g.N()), rng.Intn(g.N())))
	}
	reachQs = append(reachQs,
		schemes.NodePairQuery(0, g.N()-1),
		schemes.NodePairQuery(g.N()-1, 0),
		schemes.NodePairQuery(0, g.N()+5),
	)
	reachCross := func(q []byte, asn Assignment) bool {
		u, v, err := schemes.DecodeNodePairQuery(q)
		if err != nil {
			return false
		}
		if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
			return false
		}
		return asn.Shard(int64(u)) != asn.Shard(int64(v))
	}
	rangeCross := func(q []byte, asn Assignment) bool {
		lo, hi, err := schemes.DecodeRangeQuery(q)
		if err != nil || lo >= hi {
			return false
		}
		return asn.Shard(lo) != asn.Shard(hi)
	}

	return []diffWorkload{
		{"point-selection", schemes.PointSelectionScheme(), relData, pointQs, nil},
		{"range-selection", schemes.RangeSelectionScheme(), relData, rangeQs, rangeCross},
		{"list-membership", schemes.ListMembershipScheme(), schemes.EncodeList(list), listQs, nil},
		{"reachability", schemes.ReachabilityScheme(), g.Encode(), reachQs, reachCross},
		{"reachability-bfs", schemes.ReachabilityBFSScheme(), g.Encode(), reachQs, reachCross},
		{"reachability-labels", schemes.ReachabilityLabelsScheme(), g.Encode(), reachQs, reachCross},
	}
}

// TestShardedDifferential is the acceptance test for the sharded answering
// path: for every shardable scheme, every partitioner, and n ∈ {2, 4},
// every query — including queries whose answers span shards — must return
// exactly the unsharded scheme's verdict (or error exactly when it
// errors), both one at a time and through AnswerBatch.
func TestShardedDifferential(t *testing.T) {
	for _, w := range assembleWorkloads(t) {
		pd, err := w.scheme.Preprocess(w.data)
		if err != nil {
			t.Fatalf("%s: unsharded preprocess: %v", w.name, err)
		}
		type oracle struct {
			want  bool
			isErr bool
		}
		oracles := make([]oracle, len(w.queries))
		for i, q := range w.queries {
			got, err := w.scheme.Answer(pd, q)
			oracles[i] = oracle{want: got, isErr: err != nil}
		}

		for _, p := range []Partitioner{HashPartitioner{}, RangePartitioner{}} {
			for _, n := range []int{2, 4} {
				name := fmt.Sprintf("%s/%s/n=%d", w.name, p.Name(), n)
				t.Run(name, func(t *testing.T) {
					ss, err := Build("d", w.scheme, ForScheme(w.scheme.Name()), p, n, w.data)
					if err != nil {
						t.Fatalf("build: %v", err)
					}
					if ss.ShardCount() != n {
						t.Fatalf("ShardCount = %d, want %d", ss.ShardCount(), n)
					}

					crossTrue := 0
					var goodQs [][]byte
					var goodWant []bool
					for i, q := range w.queries {
						got, err := ss.Answer(q)
						if (err != nil) != oracles[i].isErr {
							t.Fatalf("query %d: sharded err=%v, unsharded err=%v", i, err, oracles[i].isErr)
						}
						if err != nil {
							continue
						}
						if got != oracles[i].want {
							t.Fatalf("query %d: sharded %v, unsharded %v", i, got, oracles[i].want)
						}
						goodQs = append(goodQs, q)
						goodWant = append(goodWant, got)
						if w.crossShard != nil && got && w.crossShard(q, ss.Asn) {
							crossTrue++
						}
					}
					if w.crossShard != nil && crossTrue == 0 {
						t.Fatalf("no true cross-shard answers exercised — workload does not cover spanning queries")
					}

					// The batch path must agree with the per-query path.
					for _, par := range []int{1, 4} {
						ans, err := ss.AnswerBatch(goodQs, par)
						if err != nil {
							t.Fatalf("batch (parallelism %d): %v", par, err)
						}
						for i := range ans {
							if ans[i] != goodWant[i] {
								t.Fatalf("batch query %d (parallelism %d): %v, want %v", i, par, ans[i], goodWant[i])
							}
						}
					}
					// A failing query anywhere in a batch aborts it, like
					// core.Scheme.AnswerBatch.
					if w.name == "reachability" {
						bad := append(append([][]byte{}, goodQs[:3]...), []byte{0xff, 0xff})
						if _, err := ss.AnswerBatch(bad, 2); err == nil {
							t.Fatal("batch with a malformed query must fail")
						}
					}
				})
			}
		}
	}
}

// TestShardedPrepBytesScaleOut pins the horizontal-scaling claim for the
// closure-matrix scheme where it has one: the matrix is k² bits over the k
// classes, so on a DAG — every vertex its own class, the matrix most of Π —
// per-shard artifacts shrink quadratically and their sum must be well under
// the unsharded Π. (On a graph of a few large classes Π is already linear
// in |V| + |E| and there is nothing quadratic left to split.)
func TestShardedPrepBytesScaleOut(t *testing.T) {
	g := graph.RandomDAG(256, 512, 11)
	scheme := schemes.ReachabilityScheme()
	pd, err := scheme.Preprocess(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Build("d", scheme, ForScheme(scheme.Name()), RangePartitioner{}, 4, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	var shardsOnly int
	_, _, members := ss.Committed()
	for _, m := range members {
		shardsOnly += len(m.Prep)
	}
	if shardsOnly >= len(pd) {
		t.Fatalf("per-shard closures sum to %d bytes, not smaller than the unsharded %d", shardsOnly, len(pd))
	}
}

// TestRegisterShardedMemoization: one catalog entry, one build, racing
// registrations share it, incompatible re-registrations error.
func TestRegisterShardedMemoization(t *testing.T) {
	reg := store.NewRegistry("")
	g := graph.CommunityGraph(3, 8, 10, 3)
	scheme := schemes.ReachabilityScheme()

	ss1, err := RegisterSharded(reg, "g", scheme, HashPartitioner{}, 2, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	ss2, err := RegisterSharded(reg, "g", scheme, HashPartitioner{}, 2, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if ss1 != ss2 {
		t.Fatal("re-registration returned a different sharded store")
	}
	if got := reg.PreprocessCount(); got != 2 {
		t.Fatalf("PreprocessCount = %d, want 2 (one per shard)", got)
	}
	if _, err := RegisterSharded(reg, "g", scheme, HashPartitioner{}, 4, g.Encode()); err == nil {
		t.Fatal("re-registering with a different shard count must error")
	}
	if _, err := RegisterSharded(reg, "g", scheme, RangePartitioner{}, 2, g.Encode()); err == nil {
		t.Fatal("re-registering with a different partitioner must error, not silently serve the other layout")
	}
	if _, err := reg.Register("g", scheme, g.Encode()); err == nil {
		t.Fatal("plain re-registration of a sharded id must error")
	}

	// The 1-shard corner: ShardCount()==1 on both types, so only the type
	// may decide ownership — neither direction may panic.
	if _, err := RegisterSharded(reg, "one", scheme, HashPartitioner{}, 1, g.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("one", scheme, g.Encode()); err == nil {
		t.Fatal("plain re-registration of a 1-shard sharded id must error, not panic")
	}
	if _, err := reg.Register("plain", scheme, g.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := RegisterSharded(reg, "plain", scheme, HashPartitioner{}, 1, g.Encode()); err == nil {
		t.Fatal("sharded re-registration of a plain id must error, not panic")
	}
	if _, ok := reg.Get("g"); ok {
		t.Fatal("Get must not hand out a sharded dataset as a plain store")
	}
	ds, ok := reg.GetDataset("g")
	if !ok || ds.ShardCount() != 2 {
		t.Fatalf("GetDataset: ok=%v shards=%v", ok, ds)
	}
	// The sharded id answers through the Dataset interface.
	got, err := ds.Answer(schemes.NodePairQuery(0, 1))
	if err != nil {
		t.Fatalf("answer through dataset: %v", err)
	}
	want, err := scheme.Decide(g.Encode(), schemes.NodePairQuery(0, 1))
	if err != nil || got != want {
		t.Fatalf("dataset answer %v, direct %v (err %v)", got, want, err)
	}
}

// TestShardedNotShardable: schemes without a sharded form are refused with
// a helpful error.
func TestShardedNotShardable(t *testing.T) {
	reg := store.NewRegistry("")
	if _, err := RegisterSharded(reg, "b", schemes.BDSScheme(), HashPartitioner{}, 2, nil); err == nil {
		t.Fatal("BDS has no sharded form and must be refused")
	}
	if ForScheme("bds/visit-order") != nil {
		t.Fatal("ForScheme must not invent a sharding for BDS")
	}
}
