package server

// PATCH /v1/datasets/{id}: the HTTP face of incremental serving. These
// tests pin the happy path (delta applied, version bumped, query flips),
// the error taxonomy (404/400/405/409), the restart loop (maintained
// snapshot reloads with zero Preprocess calls), the /v1/stats maintenance
// counters, and the concurrent PATCH-vs-query contract under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/shard"
	"pitract/internal/store"
)

// patchJSON issues a PATCH with a PatchRequest and decodes the response.
func patchJSON(t *testing.T, client *http.Client, url string, deltas [][]byte, out interface{}) int {
	t.Helper()
	body, err := json.Marshal(PatchRequest{Deltas: deltas})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPatch, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestPatchMaintainsDataset walks the core loop over HTTP: register, query
// (absent → false), PATCH a delta, query again (present → true, version
// bumped), with GET /v1/datasets/{id} and /v1/stats reflecting the
// maintenance.
func TestPatchMaintainsDataset(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "m", Scheme: "list-membership/sorted", Data: schemes.EncodeList([]int64{1, 2, 3}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	var q QueryResponse
	if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
		Dataset: "m", Query: schemes.PointQuery(9),
	}, &q); code != http.StatusOK || q.Answer || q.Version != 0 {
		t.Fatalf("pre-delta query: %d %+v (want 200, false, v0)", code, q)
	}

	var info DatasetInfo
	if code := patchJSON(t, client, ts.URL+"/v1/datasets/m",
		[][]byte{schemes.KeysDelta([]int64{9, 11})}, &info); code != http.StatusOK {
		t.Fatalf("patch: status %d (%+v)", code, info)
	}
	if info.Version != 1 || info.ID != "m" {
		t.Fatalf("patch info %+v, want version 1", info)
	}
	for _, k := range []int64{9, 11, 1} {
		if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
			Dataset: "m", Query: schemes.PointQuery(k),
		}, &q); code != http.StatusOK || !q.Answer || q.Version != 1 {
			t.Fatalf("post-delta query %d: %d %+v (want 200, true, v1)", k, code, q)
		}
	}
	var got DatasetInfo
	if code := getJSON(t, client, ts.URL+"/v1/datasets/m", &got); code != http.StatusOK || got.Version != 1 {
		t.Fatalf("GET dataset: %d %+v (want 200, version 1)", code, got)
	}
	var stats StatsResponse
	if code := getJSON(t, client, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.DeltasApplied != 1 || stats.MaintenanceNs <= 0 {
		t.Fatalf("stats %+v: want deltas_applied 1 and positive maintenance_ns", stats)
	}
}

// TestPatchDeleteLifecycle walks full dynamism over HTTP: tombstone a key
// (query flips to false), re-insert it (true again), delete it
// once more, with /v1/stats counting the delete-kind deltas and reporting
// zero log replays on a clean run — and a restart over the same directory
// reloading the post-delete state without resurrecting the key.
func TestPatchDeleteLifecycle(t *testing.T) {
	dir := t.TempDir()
	srv := New(store.NewRegistry(dir), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "point-selection/sorted-keys", Data: schemes.RelationFromKeys([]int64{2, 4, 6}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	query := func(k int64) (bool, uint64) {
		var q QueryResponse
		if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
			Dataset: "d", Query: schemes.PointQuery(k),
		}, &q); code != http.StatusOK {
			t.Fatalf("query %d: status %d", k, code)
		}
		return q.Answer, q.Version
	}

	var info DatasetInfo
	if code := patchJSON(t, client, ts.URL+"/v1/datasets/d",
		[][]byte{schemes.KeysDeleteDelta([]int64{4, 999})}, &info); code != http.StatusOK {
		t.Fatalf("delete patch: status %d (%+v)", code, info)
	}
	if ok, v := query(4); ok || v != 1 {
		t.Fatalf("key 4 after tombstone: %v v%d (want false, v1)", ok, v)
	}
	if ok, _ := query(2); !ok {
		t.Fatal("tombstone for 4 took key 2 with it")
	}
	if code := patchJSON(t, client, ts.URL+"/v1/datasets/d",
		[][]byte{schemes.KeysDelta([]int64{4})}, &info); code != http.StatusOK {
		t.Fatalf("re-insert patch: status %d", code)
	}
	if ok, v := query(4); !ok || v != 2 {
		t.Fatalf("key 4 after re-insert: %v v%d (want true, v2)", ok, v)
	}
	if code := patchJSON(t, client, ts.URL+"/v1/datasets/d",
		[][]byte{schemes.KeysDeleteDelta([]int64{4})}, &info); code != http.StatusOK {
		t.Fatalf("re-delete patch: status %d", code)
	}
	if ok, v := query(4); ok || v != 3 {
		t.Fatalf("key 4 after re-delete: %v v%d (want false, v3)", ok, v)
	}

	var stats StatsResponse
	if code := getJSON(t, client, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.DeltasApplied != 3 || stats.DeltasDeleted != 2 {
		t.Fatalf("stats applied %d deleted %d, want 3 and 2", stats.DeltasApplied, stats.DeltasDeleted)
	}
	if stats.LogReplays != 0 {
		t.Fatalf("clean run reports %d log replays", stats.LogReplays)
	}

	// Restart over the same directory: the tombstone must hold.
	srv2 := New(store.NewRegistry(dir), nil)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if code := postJSON(t, ts2.Client(), ts2.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "point-selection/sorted-keys", Data: schemes.RelationFromKeys([]int64{2, 4, 6}),
	}, nil); code != http.StatusOK {
		t.Fatalf("re-register: status %d", code)
	}
	var q QueryResponse
	if code := postJSON(t, ts2.Client(), ts2.URL+"/v1/query", QueryRequest{
		Dataset: "d", Query: schemes.PointQuery(4),
	}, &q); code != http.StatusOK || q.Answer || q.Version != 3 {
		t.Fatalf("restart resurrected key 4: %d %+v (want false, v3)", code, q)
	}
}

// TestPatchErrorTaxonomy pins every refusal to its status code, and that a
// refused PATCH leaves the dataset serving its old state.
func TestPatchErrorTaxonomy(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "m", Scheme: "list-membership/sorted", Data: schemes.EncodeList([]int64{1, 2, 3}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "scan", Scheme: "point-selection/scan", Data: schemes.RelationFromKeys([]int64{1}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register scan: status %d", code)
	}
	if code := postJSON(t, client, ts.URL+"/v1/datasets?shards=2", RegisterRequest{
		ID: "gbfs", Scheme: "reachability/bfs-per-query", Data: smallGraph().Encode(),
	}, nil); code != http.StatusOK {
		t.Fatalf("register sharded bfs: status %d", code)
	}
	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "g", Scheme: "reachability/closure-matrix", Data: smallGraph().Encode(),
	}, nil); code != http.StatusOK {
		t.Fatalf("register closure: status %d", code)
	}

	var e struct {
		Error string `json:"error"`
	}
	cases := []struct {
		name   string
		url    string
		deltas [][]byte
		want   int
	}{
		{"unknown-id", "/v1/datasets/ghost", [][]byte{schemes.KeysDelta([]int64{1})}, http.StatusNotFound},
		{"empty-batch", "/v1/datasets/m", nil, http.StatusBadRequest},
		{"hostile-delta", "/v1/datasets/m", [][]byte{{0xff, 0xff, 0xff}}, http.StatusConflict},
		{"no-incremental-form", "/v1/datasets/scan", [][]byte{schemes.KeysDelta([]int64{2})}, http.StatusConflict},
		{"sharded-without-delta-routing", "/v1/datasets/gbfs", [][]byte{schemes.EdgeDelta(0, 1)}, http.StatusConflict},
		{"delete-absent-edge", "/v1/datasets/g", [][]byte{schemes.EdgeDeleteDelta(0, 3)}, http.StatusConflict},
		{"hostile-tombstone", "/v1/datasets/m", [][]byte{{0xff, 0xff, 0xff, 0x00, 0x02, 0x80}}, http.StatusConflict},
		{"bad-path", "/v1/datasets/", [][]byte{schemes.KeysDelta([]int64{1})}, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e.Error = ""
			if code := patchJSON(t, client, ts.URL+tc.url, tc.deltas, &e); code != tc.want {
				t.Fatalf("status %d, want %d (error %q)", code, tc.want, e.Error)
			}
			if e.Error == "" {
				t.Fatal("refusal carries no error message")
			}
		})
	}

	// Method taxonomy: PATCH is only valid on the subresource.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/m", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE on subresource: %d, want 405", resp.StatusCode)
	}

	// All refused: every dataset still serves its registration state.
	var q QueryResponse
	if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
		Dataset: "m", Query: schemes.PointQuery(1),
	}, &q); code != http.StatusOK || !q.Answer || q.Version != 0 {
		t.Fatalf("dataset disturbed by refused PATCHes: %d %+v", code, q)
	}
}

// TestPatchSurvivesRestart is the live-verifiable loop as a test: register
// → PATCH → restart over the same directory → the maintained snapshot
// reloads (preprocess_calls = 0) and still reflects the delta, then keeps
// accepting PATCHes.
func TestPatchSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	data := schemes.RelationFromKeys([]int64{2, 4, 6})

	srv1 := New(store.NewRegistry(dir), nil)
	ts1 := httptest.NewServer(srv1)
	client := ts1.Client()
	if code := postJSON(t, client, ts1.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "point-selection/sorted-keys", Data: data,
	}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	var info DatasetInfo
	if code := patchJSON(t, client, ts1.URL+"/v1/datasets/d",
		[][]byte{schemes.KeysDelta([]int64{9}), schemes.KeysDelta([]int64{11})}, &info); code != http.StatusOK {
		t.Fatalf("patch: status %d", code)
	}
	if info.Version != 2 {
		t.Fatalf("version %d after 2 deltas", info.Version)
	}
	ts1.Close()

	// Restart: fresh registry over the same snapshot directory.
	srv2 := New(store.NewRegistry(dir), nil)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	client = ts2.Client()
	if code := postJSON(t, client, ts2.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "point-selection/sorted-keys", Data: data,
	}, &info); code != http.StatusOK {
		t.Fatalf("re-register: status %d", code)
	}
	if !info.Loaded || info.Version != 2 {
		t.Fatalf("restart info %+v: want loaded=true, version 2", info)
	}
	var stats StatsResponse
	getJSON(t, client, ts2.URL+"/v1/stats", &stats)
	if stats.PreprocessCalls != 0 || stats.SnapshotLoads != 1 {
		t.Fatalf("restart stats %+v: want preprocess_calls 0, snapshot_loads 1", stats)
	}
	var q QueryResponse
	if code := postJSON(t, client, ts2.URL+"/v1/query", QueryRequest{
		Dataset: "d", Query: schemes.PointQuery(9),
	}, &q); code != http.StatusOK || !q.Answer || q.Version != 2 {
		t.Fatalf("reloaded query: %d %+v (want true at version 2)", code, q)
	}

	// The reloaded dataset keeps accepting deltas from where it left off.
	if code := patchJSON(t, client, ts2.URL+"/v1/datasets/d",
		[][]byte{schemes.KeysDelta([]int64{13})}, &info); code != http.StatusOK || info.Version != 3 {
		t.Fatalf("post-restart patch: %d %+v (want version 3)", code, info)
	}
}

// TestPatchMaintainsUnnamedScheme serves a scheme no built-in name knows:
// a dataset is maintained through the ApplyDelta of the scheme it was
// registered with, so a catalog entry of any name that declares one takes
// PATCHes, and a restart replays its delta log through the same scheme.
func TestPatchMaintainsUnnamedScheme(t *testing.T) {
	dir := t.TempDir()
	custom := *schemes.ListMembershipScheme()
	custom.SchemeName = "custom/sorted-list"
	catalog := map[string]*core.Scheme{custom.SchemeName: &custom}
	data := schemes.EncodeList([]int64{2, 4, 6})
	open := func() (*httptest.Server, DatasetInfo) {
		reg := store.NewRegistry(dir)
		reg.SetCheckpointEvery(4) // one PATCH stays in the delta log
		ts := httptest.NewServer(New(reg, catalog))
		var info DatasetInfo
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/datasets", RegisterRequest{
			ID: "d", Scheme: custom.SchemeName, Data: data,
		}, &info); code != http.StatusOK {
			t.Fatalf("register: status %d", code)
		}
		return ts, info
	}
	ask := func(ts *httptest.Server) QueryResponse {
		var q QueryResponse
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/query", QueryRequest{
			Dataset: "d", Query: schemes.PointQuery(9),
		}, &q); code != http.StatusOK {
			t.Fatalf("query: status %d", code)
		}
		return q
	}

	ts1, _ := open()
	if q := ask(ts1); q.Answer || q.Version != 0 {
		t.Fatalf("before the PATCH: %+v, want false at version 0", q)
	}
	var info DatasetInfo
	if code := patchJSON(t, ts1.Client(), ts1.URL+"/v1/datasets/d",
		[][]byte{schemes.KeysDelta([]int64{9})}, &info); code != http.StatusOK || info.Version != 1 {
		t.Fatalf("patch: status %d, %+v (want 200 at version 1)", code, info)
	}
	if q := ask(ts1); !q.Answer || q.Version != 1 {
		t.Fatalf("after the PATCH: %+v, want true at version 1", q)
	}
	ts1.Close()

	ts2, info := open()
	defer ts2.Close()
	if !info.Loaded || info.Version != 1 {
		t.Fatalf("restart info %+v: want loaded=true, version 1", info)
	}
	var stats StatsResponse
	getJSON(t, ts2.Client(), ts2.URL+"/v1/stats", &stats)
	if stats.LogReplays != 1 || stats.PreprocessCalls != 0 {
		t.Fatalf("restart stats: log_replays %d, preprocess_calls %d (want 1, 0)", stats.LogReplays, stats.PreprocessCalls)
	}
	if q := ask(ts2); !q.Answer || q.Version != 1 {
		t.Fatalf("after the restart: %+v, want true at version 1", q)
	}
}

// TestPatchQueryRaceOverHTTP races PATCH writers against query readers
// through the full HTTP stack under -race: reported versions must be
// monotonic per client, and a version that claims delta i committed must
// come with delta i's key visible.
func TestPatchQueryRaceOverHTTP(t *testing.T) {
	srv := New(store.NewRegistry(t.TempDir()), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	keys := make([]int64, 32)
	for i := range keys {
		keys[i] = int64(2 * i)
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/datasets", RegisterRequest{
		ID: "d", Scheme: "point-selection/sorted-keys", Data: schemes.RelationFromKeys(keys),
	}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}

	const deltas = 24
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{}
		for i := 0; i < deltas; i++ {
			var info DatasetInfo
			if code := patchJSON(t, client, ts.URL+"/v1/datasets/d",
				[][]byte{schemes.KeysDelta([]int64{int64(1001 + 2*i)})}, &info); code != http.StatusOK {
				t.Errorf("patch %d: status %d", i, code)
				return
			}
			if info.Version != uint64(i+1) {
				t.Errorf("patch %d: version %d, want %d", i, info.Version, i+1)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			client := &http.Client{}
			rng := rand.New(rand.NewSource(int64(r) + 7))
			var last uint64
			for j := 0; j < 60; j++ {
				i := rng.Intn(deltas)
				var q QueryResponse
				if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
					Dataset: "d", Query: schemes.PointQuery(int64(1001 + 2*i)),
				}, &q); code != http.StatusOK {
					t.Errorf("query: status %d", code)
					return
				}
				if q.Version < last {
					t.Errorf("reported version went backwards: %d after %d", q.Version, last)
					return
				}
				last = q.Version
				if q.Version >= uint64(i+1) && !q.Answer {
					t.Errorf("version %d claims delta %d applied but its key is invisible", q.Version, i)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	var stats StatsResponse
	getJSON(t, ts.Client(), ts.URL+"/v1/stats", &stats)
	if stats.DeltasApplied != deltas {
		t.Fatalf("stats count %d deltas, want %d", stats.DeltasApplied, deltas)
	}
}

// TestPatchShardedOverHTTP exercises the sharded PATCH path end-to-end: a
// hash-partitioned membership dataset accepts key deltas that split across
// shards, and the verdicts and version reflect them.
func TestPatchShardedOverHTTP(t *testing.T) {
	srv := New(store.NewRegistry(t.TempDir()), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/datasets?shards=3", RegisterRequest{
		ID: "m", Scheme: "list-membership/sorted", Data: schemes.EncodeList([]int64{1, 2, 3}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	inserted := []int64{100, 101, 102, 103, 104, 105, 106, 107}
	var info DatasetInfo
	if code := patchJSON(t, client, ts.URL+"/v1/datasets/m",
		[][]byte{schemes.KeysDelta(inserted)}, &info); code != http.StatusOK {
		t.Fatalf("sharded patch: status %d (%+v)", code, info)
	}
	if info.Version != 1 || info.Shards != 3 {
		t.Fatalf("sharded patch info %+v, want version 1 over 3 shards", info)
	}
	queries := make([][]byte, 0, len(inserted)+2)
	for _, k := range inserted {
		queries = append(queries, schemes.PointQuery(k))
	}
	queries = append(queries, schemes.PointQuery(1), schemes.PointQuery(999))
	var batch BatchResponse
	if code := postJSON(t, client, ts.URL+"/v1/query/batch", BatchRequest{
		Dataset: "m", Queries: queries,
	}, &batch); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	for i := range inserted {
		if !batch.Answers[i] {
			t.Fatalf("inserted key %d invisible after sharded PATCH", inserted[i])
		}
	}
	if !batch.Answers[len(inserted)] || batch.Answers[len(inserted)+1] {
		t.Fatalf("sharded PATCH disturbed pre-existing verdicts: %v", batch.Answers)
	}
	if batch.Version != 1 {
		t.Fatalf("batch version %d, want 1", batch.Version)
	}
}

// TestPatchPersistFailureIs500 pins the error taxonomy's server-fault
// class: when the deltas are applicable but the snapshot rewrite fails,
// PATCH answers 500 (retryable server fault), not 409, and commits
// nothing — and so does a registration the medium fails.
func TestPatchPersistFailureIs500(t *testing.T) {
	// A registry whose data "directory" is a plain file: registration in
	// memory-only mode is impossible (the dir is fixed at construction),
	// so point the registry at tmp/x where x is a file — MkdirAll fails on
	// every snapshot write.
	blocked := filepath.Join(t.TempDir(), "x")
	if err := os.WriteFile(blocked, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := store.NewRegistry(filepath.Join(blocked, "data"))
	srv := New(reg, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// Registration also wants to persist and fails — the same server fault,
	// plain or sharded, and no catalog entry stays behind.
	var e struct {
		Error string `json:"error"`
	}
	for _, q := range []string{"", "?shards=2"} {
		if code := postJSON(t, client, ts.URL+"/v1/datasets"+q, RegisterRequest{
			ID: "r", Scheme: "point-selection/sorted-keys", Data: schemes.RelationFromKeys([]int64{2, 4}),
		}, &e); code != http.StatusInternalServerError {
			t.Fatalf("register%s on a blocked medium: status %d (%q), want 500", q, code, e.Error)
		}
		if _, ok := reg.GetDataset("r"); ok {
			t.Fatalf("register%s on a blocked medium left a catalog entry", q)
		}
	}
	// Build the entry through the registry seam directly so that only
	// maintenance persistence is under test below.
	st := &store.Store{ID: "d", Scheme: schemes.PointSelectionScheme()}
	prep, err := st.Scheme.Preprocess(schemes.RelationFromKeys([]int64{2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	st.Prep = prep
	if _, err := reg.RegisterDatasetContext(context.Background(), "d", nil, func() (store.Dataset, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}

	if code := patchJSON(t, client, ts.URL+"/v1/datasets/d",
		[][]byte{schemes.KeysDelta([]int64{9})}, &e); code != http.StatusInternalServerError {
		t.Fatalf("persist failure: status %d (%q), want 500", code, e.Error)
	}
	var q QueryResponse
	if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
		Dataset: "d", Query: schemes.PointQuery(9),
	}, &q); code != http.StatusOK || q.Answer || q.Version != 0 {
		t.Fatalf("failed persist leaked state: %d %+v", code, q)
	}
}

// TestDatasetByIDEscaping pins the id decoding of the subresource path:
// the escaped path segment is unescaped exactly once, so ids containing
// '%' are addressable and an escaped id can never alias another dataset.
func TestDatasetByIDEscaping(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// "%78" percent-decodes to "x": if the server double-decoded, reading
	// one would alias the other.
	for i, id := range []string{"x", "%78", "50%"} {
		if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
			ID: id, Scheme: "list-membership/sorted", Data: schemes.EncodeList([]int64{int64(i)}),
		}, nil); code != http.StatusOK {
			t.Fatalf("register %q: status %d", id, code)
		}
	}
	var info DatasetInfo
	for _, tc := range []struct{ path, wantID string }{
		{"/v1/datasets/x", "x"},
		{"/v1/datasets/%2578", "%78"}, // %25 = '%', so this addresses id "%78"
		{"/v1/datasets/50%25", "50%"},
	} {
		if code := getJSON(t, client, ts.URL+tc.path, &info); code != http.StatusOK || info.ID != tc.wantID {
			t.Fatalf("GET %s: status %d id %q, want 200 id %q", tc.path, code, info.ID, tc.wantID)
		}
	}
	// PATCHing the escaped id must mutate it, not its decoded alias.
	if code := patchJSON(t, client, ts.URL+"/v1/datasets/%2578",
		[][]byte{schemes.KeysDelta([]int64{42})}, &info); code != http.StatusOK || info.ID != "%78" || info.Version != 1 {
		t.Fatalf("PATCH escaped id: status %d %+v", code, info)
	}
	if code := getJSON(t, client, ts.URL+"/v1/datasets/x", &info); code != http.StatusOK || info.Version != 0 {
		t.Fatalf("alias dataset mutated: %+v", info)
	}
}

// smallGraph builds a tiny directed graph for registration fixtures.
func smallGraph() *graph.Graph {
	return graph.CommunityGraph(2, 4, 6, 3)
}

// TestStatsSnapshotBytesTracksPatch pins /v1/stats' snapshot_bytes as a
// live figure that scraping does not recompute: it is the exact encoded
// size of every dataset's current snapshot (plain and sharded), a repeated
// scrape reports the same bytes, and a PATCH to either kind of dataset
// moves it to the new exact size.
func TestStatsSnapshotBytesTracksPatch(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	keys := make([]int64, 512)
	for i := range keys {
		keys[i] = int64(5 * i)
	}
	for id, q := range map[string]string{"plain": "", "sharded": "?shards=3"} {
		if code := postJSON(t, client, ts.URL+"/v1/datasets"+q, RegisterRequest{
			ID: id, Scheme: "list-membership/sorted", Data: schemes.EncodeList(keys),
		}, nil); code != http.StatusOK {
			t.Fatalf("register %s: status %d", id, code)
		}
	}
	// exact re-derives the figure from the artifacts themselves.
	exact := func() int64 {
		var total int64
		for _, id := range []string{"plain", "sharded"} {
			// The one file a checkpoint writes: the manifest, members inside.
			ds, _ := srv.Registry().GetDataset(id)
			st, _ := ds.(*store.Store)
			var layout []byte
			if ss, ok := ds.(*shard.ShardedStore); ok {
				st, layout = ss.Store, ss.Encode()
			}
			c := st.Committed()
			m := &store.Manifest{SchemeName: st.SchemeName(), DataSum: st.DataSum, Layout: layout, Summary: c.Summary(), Version: c.Version()}
			for i := range c.Members() {
				m.Members = append(m.Members, store.EncodeSnapshot(c.Snapshot(st.Scheme, i)))
			}
			total += int64(len(store.EncodeManifest(m)))
		}
		return total
	}
	scrape := func() int64 {
		var stats StatsResponse
		if code := getJSON(t, client, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
			t.Fatalf("stats: status %d", code)
		}
		return stats.SnapshotBytes
	}
	last := scrape()
	if last != exact() || scrape() != last {
		t.Fatalf("snapshot_bytes = %d then %d, the encoded snapshots total %d", last, scrape(), exact())
	}
	// 160 fresh keys: enough to grow every shard's key file by whole words
	// (a key costs a few bits there, so a handful might not move its size).
	var added []int64
	for k := int64(1); k < 200; k++ {
		if k%5 != 0 {
			added = append(added, k)
		}
	}
	for _, id := range []string{"plain", "sharded"} {
		if code := patchJSON(t, client, ts.URL+"/v1/datasets/"+id,
			[][]byte{schemes.KeysDelta(added)}, nil); code != http.StatusOK {
			t.Fatalf("patch %s: status %d", id, code)
		}
		got := scrape()
		if got == last || got != exact() {
			t.Fatalf("after patching %s snapshot_bytes = %d (was %d), the encoded snapshots total %d", id, got, last, exact())
		}
		last = got
	}
}

// TestPatchAcknowledgesOwnVersion: N concurrent single-delta PATCHes are
// acknowledged with exactly the versions {1…N} — each ack carries the
// version its own batch committed at, never a later read that under
// concurrent writers is another request's.
func TestPatchAcknowledgesOwnVersion(t *testing.T) {
	srv := New(store.NewRegistry(""), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
		ID: "m", Scheme: "list-membership/sorted", Data: schemes.EncodeList([]int64{1, 2, 3}),
	}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}

	const n = 48
	acked := make([]uint64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(PatchRequest{Deltas: [][]byte{schemes.KeysDelta([]int64{int64(100 + i)})}})
			req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/datasets/m", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var info DatasetInfo
			if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d, decode %v", resp.StatusCode, err)
				return
			}
			acked[i] = info.Version
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool, n)
	for i, v := range acked {
		if errs[i] != nil {
			t.Fatalf("patch %d: %v", i, errs[i])
		}
		if v < 1 || v > n || seen[v] {
			t.Fatalf("patch %d acknowledged version %d; acks %v are not exactly {1…%d}", i, v, acked, n)
		}
		seen[v] = true
	}
}
