package server

// FuzzApplyDelta throws hostile HTTP delta payloads at PATCH
// /v1/datasets/{id}: whatever bytes arrive — inserts, tombstones, upserts,
// junk with a valid envelope, or raw garbage — the server must respond
// with a clean status (200 only for genuinely applicable deltas), never
// panic, and never corrupt the served Π or its on-disk snapshot. The
// post-state is checked against the ⊕ oracle: if the server said 200, the
// delta must apply to the raw database too, and the served answers must
// match a from-scratch preprocessing of the updated database; if it said
// 409, the dataset must be bitwise untouched. The seeded corpus runs as
// unit tests under plain `go test` (and so in CI).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pitract/internal/schemes"
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
	f.Add(schemes.KeysUpsertDelta([]int64{4, 7}))
	f.Add(schemes.KeysDeleteDelta(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, 0x07, 1, 2})        // unknown kind byte
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, 0x02, 0x80})        // delete with torn varint payload
	f.Add(append(schemes.KeysDeleteDelta([]int64{4}), 0xEE)) // trailing junk
	f.Add(schemes.KeysDelta([]int64{9, 9, -9})[:1])
	f.Add(bytes.Repeat([]byte{0x80}, 16))

	f.Fuzz(func(t *testing.T, delta []byte) {
		dir := t.TempDir()
		srv := New(store.NewRegistry(dir), nil)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		client := ts.Client()

		inc := schemes.IncrementalPointSelection()
		data := schemes.RelationFromKeys([]int64{2, 4, 6})
		if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
			ID: "d", Scheme: "point-selection/sorted-keys", Data: data,
		}, nil); code != http.StatusOK {
			t.Fatalf("register: status %d", code)
		}

		body, _ := json.Marshal(PatchRequest{Deltas: [][]byte{delta}})
		req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/datasets/d", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
			t.Fatalf("PATCH with %d delta bytes: status %d, want 200 or 409", len(delta), resp.StatusCode)
		}

		// The ⊕ oracle: a 200 means the delta is genuinely applicable, so it
		// must apply to the raw database too; a 409 means nothing changed.
		applied := resp.StatusCode == http.StatusOK
		oracle := data
		if applied {
			oracle, err = inc.ApplyUpdate(data, delta)
			if err != nil {
				t.Fatalf("server applied a delta ⊕ rejects: %v", err)
			}
		}
		want, err := inc.Scheme.Preprocess(oracle)
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
		for _, k := range []int64{2, 4, 6, 7, 9, 999, -9} {
			expect, err := inc.Scheme.Answer(want, schemes.PointQuery(k))
			if err != nil {
				t.Fatal(err)
			}
			var q QueryResponse
			if code := postJSON(t, client, ts.URL+"/v1/query", QueryRequest{
				Dataset: "d", Query: schemes.PointQuery(k),
			}, &q); code != http.StatusOK || q.Answer != expect {
				t.Fatalf("canary key %d after PATCH status %d: code %d answer %v, oracle says %v",
					k, resp.StatusCode, code, q.Answer, expect)
			}
			if q.Version != wantVersion {
				t.Fatalf("version %d after PATCH status %d", q.Version, resp.StatusCode)
			}
		}

		// The snapshot on disk must decode and hold exactly the served Π.
		snap, err := store.LoadFS(store.OSFS, store.SnapshotPath(dir, "d"))
		if err != nil {
			t.Fatalf("snapshot corrupted by hostile PATCH: %v", err)
		}
		if snap.Version != wantVersion {
			t.Fatalf("snapshot version %d, want %d", snap.Version, wantVersion)
		}
		ds, ok := srv.Registry().Get("d")
		if !ok {
			t.Fatal("registry entry lost")
		}
		served, _ := ds.View()
		if !bytes.Equal(snap.Prep, served) {
			t.Fatal("snapshot Π diverged from served Π")
		}
	})
}
