package shard

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/obs"
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

// assembleWorkloads builds the workload list: the four shardable schemes over
// four dataset kinds — the sorted keys twice, once per query kind, and the
// community graph split along and through its communities — with
// query mixes that include cross-shard answers, empty ranges, and
// malformed/out-of-range queries.
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

	// The same communities with their members alternating between the four
	// quarters of the key space: a split into key ranges cuts through every
	// one of them.
	scattered := scatteredCommunity(4, 16, 40, 7, 4)

	return []diffWorkload{
		{"point-selection", schemes.PointSelectionScheme(), relData, pointQs, nil},
		{"range-selection", schemes.PointSelectionScheme(), relData, rangeQs, rangeCross},
		{"list-membership", schemes.ListMembershipScheme(), schemes.EncodeList(list), listQs, nil},
		{"reachability", schemes.ReachabilityScheme(), g.Encode(), reachQs, reachCross},
		{"reachability-labels", schemes.ReachabilityLabelsScheme(), g.Encode(), reachQs, reachCross},
		{"reachability-scattered", schemes.ReachabilityScheme(), scattered.Encode(), reachQs, reachCross},
		{"reachability-labels-scattered", schemes.ReachabilityLabelsScheme(), scattered.Encode(), reachQs, reachCross},
	}
}

// TestShardedDifferential is the acceptance test for the sharded answering
// path: for every shardable scheme split into n ∈ {2, 4, manyParts} key ranges,
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
		a, err := w.scheme.Prepare(pd)
		if err != nil {
			t.Fatalf("%s: unsharded prepare: %v", w.name, err)
		}
		oracles := make([]oracle, len(w.queries))
		for i, q := range w.queries {
			got, err := a.Answer(q)
			oracles[i] = oracle{want: got, isErr: err != nil}
		}

		for _, n := range []int{2, 4, manyParts} {
			name := fmt.Sprintf("%s/range/n=%d", w.name, n)
			t.Run(name, func(t *testing.T) {
				ss, err := Build("d", w.scheme, ForScheme(w.scheme.Name()), RangePartitioner{}, n, w.data)
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
	members := ss.Committed().Members()
	for _, m := range members {
		shardsOnly += len(m.Prep)
	}
	if shardsOnly >= len(pd) {
		t.Fatalf("per-shard closures sum to %d bytes, not smaller than the unsharded %d", shardsOnly, len(pd))
	}
}

// TestClosurePiBelowData pins what the closure-matrix scheme costs to hold
// against the data it answers from — a deterministic count of bytes, on the
// two graphs the benchmark's reachability mixes register: Π under 0.55 of the
// graph's encoding on a random 4096-vertex, 16 384-arc graph, and the four
// range shards' Π plus the cross-shard summary under 0.45 on an 8 × 256
// community graph. Both were above the data while the graph was stored as
// graph.Encode's uvarint pairs and every class id took two bytes; the sharded
// one was 0.71 while the summary also stored a local id per vertex, the cross
// edges as uvarint pairs and the portal list with each portal's shard.
func TestClosurePiBelowData(t *testing.T) {
	scheme := schemes.ReachabilityScheme()
	d := graph.RandomDirected(4096, 16384, 1).Encode()
	pd, err := scheme.Preprocess(d)
	if err != nil {
		t.Fatal(err)
	}
	if r := float64(len(pd)) / float64(len(d)); r > 0.55 {
		t.Errorf("random graph: Π %d bytes for %d of data, %.3f B/B, want ≤ 0.55", len(pd), len(d), r)
	}
	d = graph.CommunityGraph(8, 256, 512, 1).Encode()
	ss, err := Build("d", scheme, ForScheme(scheme.Name()), RangePartitioner{}, 4, d)
	if err != nil {
		t.Fatal(err)
	}
	if r := float64(ss.PrepBytes()) / float64(len(d)); r > 0.45 {
		t.Errorf("community graph on four shards: Π %d bytes for %d of data, %.3f B/B, want ≤ 0.45", ss.PrepBytes(), len(d), r)
	}
}

// TestRegisterShardedMemoization: one catalog entry, one build, racing
// registrations share it, incompatible re-registrations error.
func TestRegisterShardedMemoization(t *testing.T) {
	reg := store.NewRegistry("")
	g := graph.CommunityGraph(3, 8, 10, 3)
	scheme := schemes.ReachabilityScheme()

	ss1, err := RegisterSharded(reg, "g", scheme, 2, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	ss2, err := RegisterSharded(reg, "g", scheme, 2, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if ss1 != ss2 {
		t.Fatal("re-registration returned a different sharded store")
	}
	if got := reg.PreprocessCount(); got != 2 {
		t.Fatalf("PreprocessCount = %d, want 2 (one per shard)", got)
	}
	if _, err := RegisterSharded(reg, "g", scheme, 4, g.Encode()); err == nil {
		t.Fatal("re-registering with a different shard count must error")
	}
	if _, err := reg.Register("g", scheme, g.Encode()); err == nil {
		t.Fatal("plain re-registration of a sharded id must error")
	}

	// The 1-shard corner: ShardCount()==1 on both types, so only the type
	// may decide ownership — neither direction may panic.
	if _, err := RegisterSharded(reg, "one", scheme, 1, g.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("one", scheme, g.Encode()); err == nil {
		t.Fatal("plain re-registration of a 1-shard sharded id must error, not panic")
	}
	if _, err := reg.Register("plain", scheme, g.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := RegisterSharded(reg, "plain", scheme, 1, g.Encode()); err == nil {
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
	pd, err := scheme.Preprocess(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	want, err := scheme.Answer(pd, schemes.NodePairQuery(0, 1))
	if err != nil || got != want {
		t.Fatalf("dataset answer %v, direct %v (err %v)", got, want, err)
	}
}

// TestShardedNotShardable: schemes without a sharded form — the global
// artifacts and the two no-preprocessing baselines — are refused with a
// helpful error, and ForScheme invents none.
func TestShardedNotShardable(t *testing.T) {
	reg := store.NewRegistry("")
	g := graph.CommunityGraph(2, 8, 4, 1).Encode()
	for _, tc := range []struct {
		scheme *core.Scheme
		data   []byte
	}{
		{schemes.BDSScheme(), nil},
		{schemes.PointSelectionScanScheme(), schemes.RelationFromKeys([]int64{2, 4, 6})},
		{schemes.ReachabilityBFSScheme(), g},
	} {
		t.Run(tc.scheme.Name(), func(t *testing.T) {
			if _, err := RegisterSharded(reg, "b", tc.scheme, 2, tc.data); err == nil {
				t.Fatal("a scheme with no sharded form was registered sharded")
			}
			if ForScheme(tc.scheme.Name()) != nil {
				t.Fatal("ForScheme invented a sharded form")
			}
		})
	}
	if want := []string{"list-membership/sorted", "point-selection/sorted-keys", "reachability/closure-matrix", "reachability/labels"}; !slices.Equal(ShardableSchemes(), want) {
		t.Fatalf("ShardableSchemes() = %v, want %v", ShardableSchemes(), want)
	}
	for _, name := range ShardableSchemes() {
		if ForScheme(name).SplitDelta == nil {
			t.Errorf("%s: the sharded form routes no deltas", name)
		}
	}
}

// TestShardedMixedSelectionBatch: one batch of point and range queries
// against a 4-shard range-partitioned relation — the two query kinds of the
// one sorted-key scheme, routed and fanned out side by side — gets each
// verdict its language gives, and a query of three keys is refused sharded
// and unsharded alike.
func TestShardedMixedSelectionBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := make([]int64, 400)
	for i := range keys {
		keys[i] = int64(rng.Intn(2000)) - 500
	}
	data := schemes.RelationFromKeys(keys)
	scheme := schemes.PointSelectionScheme()
	ss, err := Build("d", scheme, ForScheme(scheme.Name()), RangePartitioner{}, 4, data)
	if err != nil {
		t.Fatal(err)
	}
	var batch [][]byte
	var langs []core.Language
	for i := 0; i < 200; i++ {
		lo := int64(rng.Intn(2200)) - 600
		if i%2 == 0 {
			batch, langs = append(batch, schemes.PointQuery(lo)), append(langs, schemes.SelectionLanguage())
		} else {
			batch, langs = append(batch, schemes.RangeQuery(lo, lo+int64(rng.Intn(300))-20)), append(langs, schemes.RangeSelectionLanguage())
		}
	}
	got, err := ss.AnswerBatch(batch, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{} // language and verdict
	for i, q := range batch {
		want, err := langs[i].Contains(data, q)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("query %d (%s): sharded %v, the language says %v", i, langs[i].Name(), got[i], want)
		}
		seen[fmt.Sprintf("%s %v", langs[i].Name(), want)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("verdicts seen %v: the batch must hold both verdicts of both kinds", seen)
	}
	three := core.EncodeUint64(1, 2, 3)
	pd, err := scheme.Preprocess(data)
	if err != nil {
		t.Fatal(err)
	}
	unsharded, err := scheme.Prepare(pd)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]core.Answerer{"sharded": ss.Committed().View(), "unsharded": unsharded} {
		if _, err := a.Answer(three); err == nil || !strings.Contains(err.Error(), "neither a point query (one key) nor a range query (two keys)") {
			t.Errorf("%s: a three-key query: %v, want a refusal naming both query kinds", name, err)
		}
	}
	if _, err := ss.AnswerBatch(append(batch[:2:2], three), 2); err == nil {
		t.Error("a batch holding a three-key query was answered")
	}
}

// TestStageTimingsPerLayout pins what the one Store records for each layout:
// opening a dataset is one warm observation (for a plain store, one per
// prepared Π); a plain store and the router record no shard_merge; a sharded
// store answering through its scheme's own view records one shard_merge per
// Ask or AskBatch call, never one per probe.
func TestStageTimingsPerLayout(t *testing.T) {
	warm, merge := obs.Stage(obs.StageWarm), obs.Stage(obs.StageShardMerge)
	counts := func() (int64, int64) { return warm.Snapshot().Count, merge.Snapshot().Count }
	g := graph.CommunityGraph(4, 16, 40, 7)
	reach, point := schemes.ReachabilityScheme(), schemes.PointSelectionScheme()
	pairs := [][]byte{schemes.NodePairQuery(1, 9), schemes.NodePairQuery(1, 60), schemes.NodePairQuery(60, 1)}
	points := [][]byte{schemes.PointQuery(2), schemes.PointQuery(5), schemes.PointQuery(8)}
	keys := schemes.RelationFromKeys([]int64{2, 4, 6, 8, 10, 12})
	for _, tc := range []struct {
		name     string
		register func(*store.Registry) (store.Dataset, error)
		queries  [][]byte
		// merged reports whether each call records one shard_merge.
		merged bool
	}{
		{"plain", func(r *store.Registry) (store.Dataset, error) { return r.Register("d", reach, g.Encode()) }, pairs, false},
		{"view-sharded", func(r *store.Registry) (store.Dataset, error) {
			return RegisterSharded(r, "d", reach, 4, g.Encode())
		}, pairs, true},
		{"routed-sharded", func(r *store.Registry) (store.Dataset, error) {
			return RegisterSharded(r, "d", point, 3, keys)
		}, points, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w0, m0 := counts()
			ds, err := tc.register(store.NewRegistry(""))
			if err != nil {
				t.Fatal(err)
			}
			if w1, m1 := counts(); w1-w0 != 1 || m1 != m0 {
				t.Fatalf("registration recorded %d warm and %d shard_merge observations, want 1 and 0", w1-w0, m1-m0)
			}
			_, m1 := counts()
			ctx := context.Background()
			for _, q := range tc.queries {
				if _, err := ds.Ask(ctx, q); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := ds.AskBatch(ctx, tc.queries, 0); err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			if tc.merged {
				want = int64(len(tc.queries)) + 1 // every Ask, and the batch once
			}
			if _, m2 := counts(); m2-m1 != want {
				t.Fatalf("%d Asks and one %d-query AskBatch recorded %d shard_merge observations, want %d",
					len(tc.queries), len(tc.queries), m2-m1, want)
			}
		})
	}
}

// TestSnapshotLoadTimesTheLoadOnly reloads, plain and with two shards, a
// point dataset whose scheme's Prepare sleeps 25 ms: the reload's one
// snapshot_load observation is the read and decode of the snapshot (or of
// the manifest and its members) alone, well under the sleep, and the sleep
// is warm's. A snapshot of other data is read and refused as stale, and a
// load that is not kept records nothing.
func TestSnapshotLoadTimesTheLoadOnly(t *testing.T) {
	const sleep = 25 * time.Millisecond
	slow := *schemes.PointSelectionScheme() // the same name: the sharded form is found by it
	prepare := slow.Prepare
	slow.Prepare = func(pd []byte) (core.Answerer, error) {
		time.Sleep(sleep)
		return prepare(pd)
	}
	load, warm := obs.Stage(obs.StageSnapshotLoad), obs.Stage(obs.StageWarm)
	data := schemes.RelationFromKeys([]int64{2, 4, 6, 8, 10, 12})
	other := schemes.RelationFromKeys([]int64{1, 3})
	for _, tc := range []struct {
		name     string
		register func(*store.Registry, []byte) (store.Dataset, error)
	}{
		{"plain", func(r *store.Registry, data []byte) (store.Dataset, error) { return r.Register("d", &slow, data) }},
		{"sharded", func(r *store.Registry, data []byte) (store.Dataset, error) {
			return RegisterSharded(r, "d", &slow, 2, data)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := tc.register(store.NewRegistry(dir), data); err != nil {
				t.Fatal(err)
			}
			l0, w0 := load.Snapshot(), warm.Snapshot()
			r := store.NewRegistry(dir)
			if _, err := tc.register(r, data); err != nil {
				t.Fatal(err)
			}
			if r.LoadCount() == 0 {
				t.Fatal("the second registration did not reload")
			}
			l1, w1 := load.Snapshot(), warm.Snapshot()
			if n := l1.Count - l0.Count; n != 1 {
				t.Fatalf("the reload recorded %d snapshot_load observations, want 1", n)
			}
			loadNs, warmNs := time.Duration(l1.SumNs-l0.SumNs), time.Duration(w1.SumNs-w0.SumNs)
			if loadNs >= sleep || warmNs < sleep {
				t.Fatalf("snapshot_load %v and warm %v around a %v Prepare: want the load under it and warm over it", loadNs, warmNs, sleep)
			}
			r = store.NewRegistry(dir)
			if _, err := tc.register(r, other); err != nil {
				t.Fatal(err)
			}
			if r.LoadCount() != 0 || r.PreprocessCount() == 0 {
				t.Fatalf("other data: %d loads, %d preprocess calls; want the snapshot refused and D rebuilt", r.LoadCount(), r.PreprocessCount())
			}
			if n := load.Snapshot().Count - l1.Count; n != 0 {
				t.Fatalf("a refused load recorded %d snapshot_load observations, want 0", n)
			}
		})
	}
}
