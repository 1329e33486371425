package server

// The hot-path pins. TestCachedVsUncachedDifferential pins the whole
// answering stack to a fresh Prepare of the store's Π: prepared store answers,
// cache-fronted answers (cold and warm), sharded and unsharded, across a
// PATCH version bump and across save → reload. TestCacheRaceWithPatch
// pins version-keyed invalidation under concurrency: with the cache in
// front and deltas committing mid-traffic, no response may ever pair a
// version with a verdict computed against an older version.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pitract/internal/cache"
	"pitract/internal/circuit"
	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/obs"
	"pitract/internal/relation"
	"pitract/internal/schemes"
	"pitract/internal/shard"
	"pitract/internal/store"
)

// hotPathCase is one servable scheme's differential workload.
type hotPathCase struct {
	scheme  *core.Scheme
	data    []byte
	queries [][]byte // valid and invalid mixed
	deltas  [][]byte // nil = scheme has no incremental form
}

func hotPathCases(t *testing.T) map[string]hotPathCase {
	t.Helper()
	rel := relation.Generate(relation.GenConfig{Rows: 120, Seed: 3, KeyMax: 200})
	list := schemes.EncodeList([]int64{2, 4, 6, 100, -7})
	dg := graph.RandomDirected(36, 90, 5)
	ug := graph.RandomConnectedUndirected(30, 60, 8)
	inst := circuit.Generate(circuit.GenConfig{Inputs: 6, Gates: 40, Seed: 4})
	cvp := circuit.EncodeInstance(&circuit.Instance{Circuit: inst, Inputs: circuit.RandomInputs(6, 9)})

	point := [][]byte{}
	for k := int64(-2); k < 210; k += 13 {
		point = append(point, schemes.PointQuery(k))
	}
	point = append(point, []byte{3, 3, 3}) // neither one key nor two

	ranges := [][]byte{
		schemes.RangeQuery(0, 50), schemes.RangeQuery(50, 0),
		schemes.RangeQuery(190, 400), schemes.RangeQuery(-10, -1), []byte{3, 3, 3},
	}

	pairs := func(n int) [][]byte {
		qs := [][]byte{}
		for u := 0; u < n; u += 3 {
			for v := 1; v < n; v += 5 {
				qs = append(qs, schemes.NodePairQuery(u, v))
			}
		}
		return append(qs, schemes.NodePairQuery(0, n+1), []byte{3})
	}

	gates := [][]byte{schemes.GateQuery(0), schemes.GateQuery(17), schemes.GateQuery(45), schemes.GateQuery(4096), []byte{3}}

	keysDelta := [][]byte{schemes.KeysDelta([]int64{7, 7, 201, -50})}
	// Edge deltas must connect previously unconnected regions so the
	// version bump observably changes verdicts.
	edgeDeltas := [][]byte{schemes.EdgeDelta(1, 30), schemes.EdgeDelta(30, 2)}

	return map[string]hotPathCase{
		"point-selection/sorted-keys": {schemes.PointSelectionScheme(), rel.Encode(), point, keysDelta},
		"point-selection/scan":        {schemes.PointSelectionScanScheme(), rel.Encode(), point, nil},
		"range-selection/sorted-keys": {schemes.PointSelectionScheme(), rel.Encode(), ranges, keysDelta}, // its RangeQuery
		"list-membership/sorted":      {schemes.ListMembershipScheme(), list, point, keysDelta},
		"reachability/closure-matrix": {schemes.ReachabilityScheme(), dg.Encode(), pairs(36), edgeDeltas},
		"reachability/bfs-per-query":  {schemes.ReachabilityBFSScheme(), dg.Encode(), pairs(36), edgeDeltas},
		"bds/visit-order":             {schemes.BDSScheme(), ug.Encode(), pairs(30), nil},
		"cvp/gate-values":             {schemes.CVPGateValueScheme(), cvp, gates, nil},
	}
}

// freshPrepare is the differential oracle for everything else: the scheme's
// Prepare run afresh over the store's current Π, not the store's memoised
// answerer.
func freshPrepare(t *testing.T, st *store.Store) core.Answerer {
	t.Helper()
	pd, _ := st.View()
	a, err := st.Scheme.Prepare(pd)
	if err != nil {
		t.Fatalf("oracle prepare: %v", err)
	}
	return a
}

// assertAgrees pins got against the oracle, error-for-error.
func assertAgrees(t *testing.T, label string, i int, oracleV bool, oracleErr error, gotV bool, gotErr error) {
	t.Helper()
	if (oracleErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: query %d: oracle err %v, got err %v", label, i, oracleErr, gotErr)
	}
	if oracleErr == nil && oracleV != gotV {
		t.Fatalf("%s: query %d: oracle %v, got %v", label, i, oracleV, gotV)
	}
}

// checkDataset pins ds (uncached), then a cache-fronted view of ds (cold
// pass filling the cache, warm pass served from it), against the oracle.
func checkDataset(t *testing.T, label string, oracle *store.Store, ds store.Dataset, c *cache.Cache, queries [][]byte) {
	t.Helper()
	cached := store.NewCachedDataset(ds, c)
	ref := freshPrepare(t, oracle)
	for pass, answerer := range []store.Dataset{ds, cached, cached} {
		for i, q := range queries {
			wantV, wantErr := ref.Answer(q)
			gotV, gotErr := answerer.Answer(q)
			assertAgrees(t, fmt.Sprintf("%s/pass%d", label, pass), i, wantV, wantErr, gotV, gotErr)
		}
	}
	// The batch paths, uncached and cached (cold cache state already warm
	// here — exercise the mixed hit/miss path with a fresh cache too).
	valid := [][]byte{}
	for _, q := range queries {
		if _, err := ref.Answer(q); err == nil {
			valid = append(valid, q)
		}
	}
	want, err := ds.AnswerBatch(valid, 4)
	if err != nil {
		t.Fatalf("%s: uncached batch: %v", label, err)
	}
	fresh := store.NewCachedDataset(ds, cache.New(1<<20))
	for _, b := range []store.Dataset{cached, fresh} {
		got, err := b.AnswerBatch(valid, 4)
		if err != nil {
			t.Fatalf("%s: cached batch: %v", label, err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: batch query %d: uncached %v, cached %v", label, i, want[i], got[i])
			}
		}
	}
}

// TestCachedVsUncachedDifferential is the acceptance pin: prepared and
// cached answer paths identical to a fresh Prepare of the store's Π for every
// servable scheme, sharded and unsharded, across a PATCH version bump and
// across save → reload.
func TestCachedVsUncachedDifferential(t *testing.T) {
	for name, tc := range hotPathCases(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			reg := store.NewRegistry(dir)
			c := cache.New(1 << 20)

			st, err := reg.Register("plain", tc.scheme, tc.data)
			if err != nil {
				t.Fatal(err)
			}
			checkDataset(t, "unsharded", st, st, c, tc.queries)

			var ss *shard.ShardedStore
			if shard.ForScheme(tc.scheme.Name()) != nil {
				ss, err = shard.RegisterSharded(reg, "sharded", tc.scheme, 3, tc.data)
				if err != nil {
					t.Fatal(err)
				}
				// The unsharded store is the sharded dataset's oracle.
				checkDataset(t, "sharded", st, ss, c, tc.queries)
			}

			// PATCH version bump: the maintained Π must answer fresh, not
			// from version-0 cache entries.
			if tc.deltas != nil {
				if _, err := reg.ApplyDelta("plain", tc.deltas); err != nil {
					t.Fatal(err)
				}
				checkDataset(t, "unsharded+patch", st, st, c, tc.queries)
				if ss != nil {
					if _, err := reg.ApplyDelta("sharded", tc.deltas); err != nil {
						t.Fatal(err)
					}
					checkDataset(t, "sharded+patch", st, ss, c, tc.queries)
				}
			}

			// Save → reload: a fresh registry over the same directory must
			// serve identically (snapshots restore Π and version, so even
			// the old cache's entries stay valid).
			reg2 := store.NewRegistry(dir)
			st2, err := reg2.Register("plain", tc.scheme, tc.data)
			if err != nil {
				t.Fatal(err)
			}
			if !st2.WasLoaded() {
				t.Fatal("reload did not come from the snapshot")
			}
			checkDataset(t, "unsharded+reload", st, st2, c, tc.queries)
			if ss != nil {
				ss2, err := shard.RegisterSharded(reg2, "sharded", tc.scheme, 3, tc.data)
				if err != nil {
					t.Fatal(err)
				}
				checkDataset(t, "sharded+reload", st, ss2, c, tc.queries)
			}
		})
	}
}

// TestCacheRaceWithPatch hammers one cached dataset with concurrent
// queries and batches while deltas commit, and pins the version contract
// end to end: a response carrying version v holds verdicts computed
// against exactly v — cache hits included, and all of a batch's verdicts
// against that one v. The workload makes that observable in both
// directions — vertex k becomes reachable from 0 exactly at version k — so
// any response whose answer for (0, k) differs from k <= version is either
// a stale-cache bug (false at version ≥ k) or a verdict filed under an
// older version's label (true at version < k). Run under -race in CI.
func TestCacheRaceWithPatch(t *testing.T) {
	const n = 24 // vertices; deltas chain 0→1→…→n-1
	g := graph.New(n, true)
	g.Normalize()

	reg := store.NewRegistry("")
	srv := New(reg, nil)
	srv.SetAnswerCache(cache.New(1 << 20))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, _ := json.Marshal(RegisterRequest{ID: "chain", Scheme: "reachability/closure-matrix", Data: g.Encode()})
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}

	query := func(tt *testing.T, u, v int) (bool, uint64) {
		b, _ := json.Marshal(QueryRequest{Dataset: "chain", Query: schemes.NodePairQuery(u, v)})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
		if err != nil {
			tt.Error(err)
			return false, 0
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			tt.Errorf("query: status %d", resp.StatusCode)
			return false, 0
		}
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			tt.Error(err)
			return false, 0
		}
		return qr.Answer, qr.Version
	}

	batch := func(tt *testing.T, ks []int) ([]bool, uint64) {
		req := BatchRequest{Dataset: "chain"}
		for _, k := range ks {
			req.Queries = append(req.Queries, schemes.NodePairQuery(0, k))
		}
		b, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/query/batch", "application/json", bytes.NewReader(b))
		if err != nil {
			tt.Error(err)
			return nil, 0
		}
		defer resp.Body.Close()
		var br BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || resp.StatusCode != http.StatusOK || len(br.Answers) != len(ks) {
			tt.Errorf("batch: status %d, %d answers, decode %v", resp.StatusCode, len(br.Answers), err)
			return nil, 0
		}
		return br.Answers, br.Version
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var lastVersion uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := 1 + rng.Intn(n-1)
				ks, answers, version := []int{k}, []bool(nil), uint64(0)
				if rng.Intn(2) == 0 {
					var ans bool
					ans, version = query(t, 0, k)
					answers = []bool{ans}
				} else {
					ks = append(ks, 1+rng.Intn(n-1), 1+rng.Intn(n-1))
					answers, version = batch(t, ks)
				}
				if version < lastVersion {
					t.Errorf("version regressed: %d after %d", version, lastVersion)
				}
				lastVersion = version
				// Version v means exactly deltas 1..v are visible: edges
				// 0→1→…→v, so (0,k) is reachable iff k <= v.
				for i, ans := range answers {
					if ans != (uint64(ks[i]) <= version) {
						t.Errorf("(0,%d) = %v labelled version %d: not the verdict of that version", ks[i], ans, version)
					}
				}
			}
		}(w)
	}

	// The maintainer: one delta per PATCH, versions 1..n-1.
	for k := 1; k < n; k++ {
		b, _ := json.Marshal(PatchRequest{Deltas: [][]byte{schemes.EdgeDelta(k-1, k)}})
		req, _ := http.NewRequest(http.MethodPatch, ts.URL+"/v1/datasets/chain", bytes.NewReader(b))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("patch %d: status %d", k, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()

	// Every chain query must now be true at version n-1, cached or not.
	for k := 1; k < n; k++ {
		ans, version := query(t, 0, k)
		if version != uint64(n-1) || !ans {
			t.Fatalf("final state: (0,%d) = (%v, v%d), want (true, v%d)", k, ans, version, n-1)
		}
	}
}

// TestStatsCacheCounters pins the /v1/stats cache block: present with
// sensible counters when the cache is on, absent when off.
func TestStatsCacheCounters(t *testing.T) {
	reg := store.NewRegistry("")
	srv := New(reg, nil)
	srv.SetAnswerCache(cache.New(1 << 20))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A traversal scheme: the cache fronts only those (see answerPath).
	body, _ := json.Marshal(RegisterRequest{ID: "g", Scheme: "reachability/bfs-per-query", Data: graph.Path(4, true).Encode()})
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for i := 0; i < 3; i++ { // one miss, two hits
		b, _ := json.Marshal(QueryRequest{Dataset: "g", Query: schemes.NodePairQuery(0, 3)})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var stats StatsResponse
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache == nil {
		t.Fatal("stats.cache absent with the cache enabled")
	}
	if stats.Cache.Hits != 2 || stats.Cache.Misses != 1 || stats.Cache.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 2 hits / 1 miss / 1 entry", *stats.Cache)
	}
	if stats.Cache.BudgetBytes != 1<<20 {
		t.Fatalf("budget = %d, want %d", stats.Cache.BudgetBytes, 1<<20)
	}

	// Without a cache the block is absent (omitempty on a nil pointer).
	srv2 := New(store.NewRegistry(""), nil)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["cache"]; ok {
		t.Fatal("stats.cache present without a cache")
	}
}

// TestCacheStagesRecordedUnderQueryBudget pins that the cache × deadline
// combination is one path, not a fork: with both -cache-bytes and
// -query-budget-ms set, single queries still record the cache_hit /
// cache_miss stage histograms (the metric behind
// pitract_stage_duration_seconds{stage="cache_hit"|"cache_miss"}) and are
// still served from — and labelled by — the cache.
func TestCacheStagesRecordedUnderQueryBudget(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	srv.SetAnswerCache(cache.New(1 << 20))
	srv.SetLimits(Limits{QueryBudget: 5 * time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code := postJSON(t, ts.Client(), ts.URL+"/v1/datasets", RegisterRequest{
		ID: "g", Scheme: "reachability/bfs-per-query", Data: graph.Path(4, true).Encode(),
	}, nil); code != http.StatusOK {
		t.Fatalf("register status %d", code)
	}
	hit, miss := obs.Stage(obs.StageCacheHit), obs.Stage(obs.StageCacheMiss)
	hits, misses := hit.Snapshot().Count, miss.Snapshot().Count
	for i := 0; i < 3; i++ { // one miss, two hits
		var qr QueryResponse
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/query", QueryRequest{
			Dataset: "g", Query: schemes.NodePairQuery(0, 3),
		}, &qr); code != http.StatusOK || !qr.Answer || qr.Version != 0 {
			t.Fatalf("query %d = status %d %+v, want 200 true at version 0", i, code, qr)
		}
	}
	// Other tests in the package share the process-wide histograms, so the
	// counts may move by more than this test's own three queries — never less.
	if got := miss.Snapshot().Count - misses; got < 1 {
		t.Fatalf("cache_miss stage moved by %d under a query budget, want >= 1", got)
	}
	if got := hit.Snapshot().Count - hits; got < 2 {
		t.Fatalf("cache_hit stage moved by %d under a query budget, want >= 2", got)
	}
}

// TestCachePlacementFollowsTheScheme pins the placement rule over the whole
// catalog, plain and, for every scheme with a sharded form, on two shards:
// the answer cache fronts a dataset iff its scheme declares a per-query
// traversal. A repeat query on an index-probe
// dataset moves no cache counter — it is answered by the prepared probe,
// which costs less than the lookup would — and a repeat query on a
// traversal dataset is a hit. DatasetInfo.cached reports the same decision.
func TestCachePlacementFollowsTheScheme(t *testing.T) {
	cases := hotPathCases(t)
	closure := cases["reachability/closure-matrix"]
	cases["reachability/labels"] = hotPathCase{scheme: schemes.ReachabilityLabelsScheme(), data: closure.data, queries: closure.queries}
	for name, sch := range Catalog() {
		tc, ok := cases[name]
		if !ok {
			t.Fatalf("catalog scheme %q has no workload in this test", name)
		}
		for _, shards := range []int{1, 2} {
			if shards > 1 && shard.ForScheme(name) == nil {
				continue // no sharded form: ?shards=2 on it is a 400
			}
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				srv := New(store.NewRegistry(""), nil)
				c := cache.New(1 << 20)
				srv.SetAnswerCache(c)
				ts := httptest.NewServer(srv)
				defer ts.Close()
				var info DatasetInfo
				if code := postJSON(t, ts.Client(), fmt.Sprintf("%s/v1/datasets?shards=%d", ts.URL, shards),
					RegisterRequest{ID: "d", Scheme: name, Data: tc.data}, &info); code != http.StatusOK {
					t.Fatalf("register status %d", code)
				}
				if info.Shards != shards {
					t.Fatalf("registered on %d shards, want %d", info.Shards, shards)
				}
				ds, _ := srv.reg.GetDataset("d")
				if fronted := srv.answerPath(ds) != ds; fronted != sch.Traversal {
					t.Fatalf("answerPath fronts the dataset: %v; scheme declares Traversal: %v", fronted, sch.Traversal)
				}
				if info.Cached != sch.Traversal {
					t.Fatalf("registration reports cached=%v, scheme declares Traversal=%v", info.Cached, sch.Traversal)
				}
				if code := getJSON(t, ts.Client(), ts.URL+"/v1/datasets/d", &info); code != http.StatusOK || info.Cached != sch.Traversal {
					t.Fatalf("GET reports status %d cached=%v, scheme declares Traversal=%v", code, info.Cached, sch.Traversal)
				}

				q := tc.queries[0]
				for i := 0; i < 2; i++ {
					if code := postJSON(t, ts.Client(), ts.URL+"/v1/query", QueryRequest{Dataset: "d", Query: q}, nil); code != http.StatusOK {
						t.Fatalf("query %d: status %d", i, code)
					}
				}
				for i := 0; i < 2; i++ {
					if code := postJSON(t, ts.Client(), ts.URL+"/v1/query/batch", BatchRequest{Dataset: "d", Queries: [][]byte{q, tc.queries[1]}}, nil); code != http.StatusOK {
						t.Fatalf("batch %d: status %d", i, code)
					}
				}
				st := c.Stats()
				if !sch.Traversal {
					if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
						t.Fatalf("index-probe dataset moved the cache: %+v", st)
					}
					return
				}
				// Single: miss, hit. First batch: q hits, its neighbour misses.
				// Second batch: both hit.
				if st.Hits != 4 || st.Misses != 2 || st.Entries != 2 {
					t.Fatalf("traversal dataset: %+v, want 4 hits / 2 misses / 2 entries", st)
				}
			})
		}
	}
}
