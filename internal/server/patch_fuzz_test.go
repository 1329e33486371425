package server

// FuzzApplyDelta throws hostile HTTP delta payloads at PATCH
// /v1/datasets/{id}: whatever bytes arrive — inserts, tombstones, untagged
// or retired-kind bytes, junk with a valid envelope, or raw garbage — the
// server must respond with a clean status (200 only for genuinely applicable
// deltas), never panic, and never corrupt the served Π or its on-disk
// artifact. Every input PATCHes a plain and a two-shard dataset, each
// registered fresh for it, and both must give the same status. The
// post-state is checked against the ⊕ oracle: if the server said 200, the
// delta must apply to the raw database too, and the served answers must
// match a from-scratch preprocessing of the updated database; if it said
// 409, the dataset must be untouched. The seeded corpus runs as unit tests
// under plain `go test` (and so in CI).
//
// One server over one on-disk registry serves a whole fuzzing process, so
// an input pays for its deltas, not for a server, a directory and a
// registry of its own.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"pitract/internal/schemes"
	"pitract/internal/shard"
	"pitract/internal/store"
)

func FuzzApplyDelta(f *testing.F) {
	// Seeds: valid deltas for each wire shape and kind, boundary garbage,
	// truncations of valid encodings, and hostile tagged envelopes.
	f.Add(schemes.KeysDelta([]int64{9}))
	f.Add(schemes.KeysDelta(nil))
	f.Add(schemes.EdgeDelta(0, 1))
	f.Add(schemes.KeysDeleteDelta([]int64{4}))
	f.Add(schemes.KeysDeleteDelta([]int64{999}))
	f.Add(schemes.KeysDelta([]int64{4, 7}))
	f.Add(schemes.KeysDeleteDelta(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, 0x07, 1, 2})        // unknown kind byte
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, 0x02, 0x01, 0x12})  // the retired upsert kind
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, 0x01, 0x80})        // delete with torn varint payload
	f.Add(schemes.EncodeList([]int64{9}))                    // an untagged (pre-PR 25) insert
	f.Add(append(schemes.KeysDeleteDelta([]int64{4}), 0xEE)) // trailing junk
	f.Add(schemes.KeysDelta([]int64{9, 9, -9})[:1])
	f.Add(bytes.Repeat([]byte{0x80}, 16))

	dir := f.TempDir()
	srv := New(store.NewRegistry(dir), nil)
	ts := httptest.NewServer(srv)
	f.Cleanup(ts.Close)
	client := ts.Client()
	inc := schemes.PointSelectionScheme()
	data := schemes.RelationFromKeys([]int64{2, 4, 6})
	canaries := []int64{2, 4, 6, 7, 9, 999, -9}
	var queries [][]byte
	for _, k := range canaries {
		queries = append(queries, schemes.PointQuery(k))
	}
	var inputs atomic.Int64

	f.Fuzz(func(t *testing.T, delta []byte) {
		n := inputs.Add(1)
		plain, sharded := fmt.Sprintf("p%d", n), fmt.Sprintf("s%d", n)
		for id, query := range map[string]string{plain: "", sharded: "?shards=2"} {
			var info DatasetInfo // read whole, so the connection is reused
			if code := postJSON(t, client, ts.URL+"/v1/datasets"+query, RegisterRequest{
				ID: id, Scheme: "point-selection/sorted-keys", Data: data,
			}, &info); code != http.StatusOK {
				t.Fatalf("register %s: status %d", id, code)
			}
		}

		body, _ := json.Marshal(PatchRequest{Deltas: [][]byte{delta}})
		patch := func(id string) int {
			req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/datasets/"+id, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp.StatusCode
		}
		status := patch(plain)
		if status != http.StatusOK && status != http.StatusConflict {
			t.Fatalf("PATCH with %d delta bytes: status %d, want 200 or 409", len(delta), status)
		}
		if got := patch(sharded); got != status {
			t.Fatalf("PATCH with %d delta bytes: status %d plain, %d sharded", len(delta), status, got)
		}

		// The ⊕ oracle: a 200 means the delta is genuinely applicable, so it
		// must apply to the raw database too; a 409 means nothing changed.
		applied := status == http.StatusOK
		oracle := data
		if applied {
			var err error
			if oracle, err = inc.ApplyUpdate(data, delta); err != nil {
				t.Fatalf("server applied a delta ⊕ rejects: %v", err)
			}
		}
		want, err := inc.Preprocess(oracle)
		if err != nil {
			t.Fatal(err)
		}
		wantVersion := uint64(0)
		if applied {
			wantVersion = 1
		}
		// The served verdicts must match a from-scratch preprocessing of the
		// oracle database for every canary key — original keys, keys a valid
		// delta may have inserted or tombstoned, and a never-touched one.
		for _, id := range []string{plain, sharded} {
			var got BatchResponse
			if code := postJSON(t, client, ts.URL+"/v1/query/batch", BatchRequest{Dataset: id, Queries: queries}, &got); code != http.StatusOK {
				t.Fatalf("%s: batch after PATCH status %d: code %d", id, status, code)
			}
			if got.Version != wantVersion {
				t.Fatalf("%s: version %d after PATCH status %d", id, got.Version, status)
			}
			for i, q := range queries {
				expect, err := inc.Answer(want, q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Answers[i] != expect {
					t.Fatalf("%s: canary key %d after PATCH status %d: answer %v, oracle says %v",
						id, canaries[i], status, got.Answers[i], expect)
				}
			}
		}

		// Each dataset's file must decode and hold exactly the served Π, every
		// member of it.
		for _, id := range []string{plain, sharded} {
			loaded, err := store.Load(store.OSFS, dir, id, inc, nil, shard.LayoutDecoder(inc))
			if err != nil {
				t.Fatalf("%s: file corrupted by hostile PATCH: %v", id, err)
			}
			ds, ok := srv.Registry().GetDataset(id)
			if !ok {
				t.Fatal("registry entry lost")
			}
			served := ds.(interface{ Committed() *store.Committed }).Committed().Members()
			disk := loaded.(interface{ Committed() *store.Committed }).Committed().Members()
			if loaded.Version() != wantVersion || len(disk) != len(served) {
				t.Fatalf("%s: file at version %d with %d members, served %d members at %d", id, loaded.Version(), len(disk), len(served), wantVersion)
			}
			for i := range served {
				if !bytes.Equal(disk[i].Prep, served[i].Prep) {
					t.Fatalf("%s: member %d diverged from the served one", id, i)
				}
			}
		}
	})
}
