package shard

// A sharded generation on disk — the manifest and the shard files it names —
// is held here to SHA-256s computed at the commit before shards stopped being
// store.Store values: member snapshots are encoded from the committed value,
// not by Store.Snapshot, so these digests are the pin that a data dir written
// by the older code still loads, and that one written now loads there. The
// plain kind's files — snapshot and delta log — are held the same way to the
// commit before store.Store became one committed value too.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
	"pitract/internal/store/faultfs"
)

// generationDigests hashes every durable file of the dataset under dir,
// keyed by file name.
func generationDigests(t *testing.T, f *faultfs.FS, dir string) map[string]string {
	t.Helper()
	names, err := f.ReadDirNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, name := range names {
		b, ok := f.DurableBytes(dir + "/" + name)
		if !ok {
			t.Fatalf("%s is listed but not durable", name)
		}
		sum := sha256.Sum256(b)
		out[name] = hex.EncodeToString(sum[:])
	}
	return out
}

func assertGeneration(t *testing.T, step string, got, want map[string]string) {
	t.Helper()
	var lines []string
	for name, sum := range got {
		lines = append(lines, "\t\t\t\""+name+"\": \""+sum+"\",")
	}
	sort.Strings(lines)
	if len(got) != len(want) {
		t.Fatalf("%s: %d files on the medium, want %d:\n%s", step, len(got), len(want), strings.Join(lines, "\n"))
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Fatalf("%s: %s hashes to %q, want %s; the medium holds:\n%s", step, name, got[name], sum, strings.Join(lines, "\n"))
		}
	}
}

// TestShardGenerationBytesUnchanged registers a fixed key dataset and a fixed
// graph with three shards, PATCHes one batch holding a same-shard and a
// cross-shard delta, checkpoints, and compares every file of both generations
// with the parent commit's bytes. A restart over the medium must then load
// the generation, not rebuild it.
func TestShardGenerationBytesUnchanged(t *testing.T) {
	keys := make([]int64, 64)
	for i := range keys {
		keys[i] = int64(7*i - 100)
	}
	// Eighteen vertices, six per range shard, each shard a different shape (a
	// chain, a cycle with a tail, two fragments); 5→6 joins the first two at
	// registration. The batch adds the chord 1→4 inside shard 0 and the cross
	// edge 11→12, which makes two new portals.
	g := graph.New(18, true)
	for _, e := range [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
		{6, 7}, {7, 8}, {8, 6}, {8, 9}, {9, 10}, {10, 11},
		{12, 13}, {13, 15}, {16, 17}, {17, 16},
		{5, 6},
	} {
		g.MustAddEdge(e[0], e[1])
	}
	cases := []struct {
		name       string
		scheme     *core.Scheme
		p          Partitioner
		data       []byte
		batch      [][]byte
		registered map[string]string
		patched    map[string]string
	}{
		{
			name:   "keys",
			scheme: schemes.ListMembershipScheme(),
			p:      HashPartitioner{},
			data:   schemes.EncodeList(keys),
			// One key (one shard), then a run of keys spread over all three.
			batch: [][]byte{schemes.KeysDelta([]int64{1001}), schemes.KeysUpsertDelta([]int64{-99, 3, 4, 5, 6, 2000})},
			registered: map[string]string{
				"d.pitract-shards":         "ce334d762f5a458c93ff7fe3ef8d14981e06e01bdeb29f4d40946e55a1e85288",
				"d.shard000.pitract-shard": "0d01b010e7a23a93bc86eddc6a6e35fae9c3741e702e4ac75faf37dffccf2fee",
				"d.shard001.pitract-shard": "3f54735ac8a618291fd9731e77ca88bc62de2a77e4de604ead371f3680e8f8bf",
				"d.shard002.pitract-shard": "d8866227a92ebd2e30788d60ea02560f30dc1fc50afb28abf272b8fd726f92aa",
			},
			patched: map[string]string{
				"d.pitract-shards":            "ea76e1fe5c16b35624d4db1659428228702575216f5fef0d52356e84c8e380c3",
				"d.shard000.v2.pitract-shard": "4f62b8326ad6d88aa0c4fad5b1e6914c6836a9d207bf0bf1869d9fe39b3e2e1d",
				"d.shard001.v2.pitract-shard": "5d6d44faf65426f88ac3cbf00adbd235d8ed85ed4e7c29c084ae6601f8f67db7",
				"d.shard002.v2.pitract-shard": "dfa953837acce990e21da3e097a0696e775efd21deaeee76601382f7b4276704",
			},
		},
		{
			name:   "graph",
			scheme: schemes.ReachabilityScheme(),
			p:      RangePartitioner{},
			data:   g.Encode(),
			batch:  [][]byte{schemes.EdgeDelta(1, 4), schemes.EdgeDelta(11, 12)},
			registered: map[string]string{
				"d.pitract-shards":         "7033d41501001f4e62dfe2ebbfdc0c61b46bb2a1d07e569d4fb21822c5d82287",
				"d.shard000.pitract-shard": "26edad1d6ae75c9ec62bb4be0ec83c25e0041253e84a3055e41d4d0824f353ee",
				"d.shard001.pitract-shard": "193339d8d9eca90eefcf58b4b3a6a9beefaecb9788530c85746247286d1c4e42",
				"d.shard002.pitract-shard": "e6acd39b1430eaa36fe2329ddd43d06b0731714d09e3c06e3c32af8767b94390",
			},
			patched: map[string]string{
				"d.pitract-shards":            "d1bceabc2fb4d7911fb00ff65949ce9e4a2e033563dfc0c5c116427c0ff2c221",
				"d.shard000.v2.pitract-shard": "c136dba35cf71503e052fa4a38d438412b5fa082926f0e7d4bce650795dfcf86",
				"d.shard001.v2.pitract-shard": "38830f095580628cd6744f4c58751d3305b8337033d2ae066b6d14bebae26b92",
				"d.shard002.v2.pitract-shard": "261d37edb53a53d7b3bec90c48b464af1b39bcb68825a839e3734e0d8a5c628b",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const dir, id = "/data", "d"
			f := faultfs.New()
			med := &store.Medium{Dir: dir, FS: f, CheckpointEvery: 1}
			reg := store.NewRegistryMedium(med)
			ss, err := RegisterSharded(reg, id, tc.scheme, tc.p, 3, tc.data)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "graph" {
				if ss.Asn.Shard(1) != ss.Asn.Shard(4) || ss.Asn.Shard(11) == ss.Asn.Shard(12) {
					t.Fatal("the batch does not hold a same-shard and a cross-shard edge")
				}
			}
			assertGeneration(t, "registered", generationDigests(t, f, dir), tc.registered)
			if v, err := reg.ApplyDelta(id, tc.batch); err != nil || v != 2 {
				t.Fatalf("PATCH: version %d, %v", v, err)
			}
			assertGeneration(t, "patched and checkpointed", generationDigests(t, f, dir), tc.patched)

			f.Restart()
			reg2 := store.NewRegistryMedium(med)
			loaded, err := RegisterSharded(reg2, id, tc.scheme, tc.p, 3, tc.data)
			if err != nil {
				t.Fatal(err)
			}
			if !loaded.WasLoaded() || loaded.Version() != 2 || reg2.PreprocessCount() != 0 || reg2.ReplayCount() != 0 {
				t.Fatalf("restart: loaded %v at version %d after %d Preprocess calls and %d replays, want a clean load at 2",
					loaded.WasLoaded(), loaded.Version(), reg2.PreprocessCount(), reg2.ReplayCount())
			}
			// A checkpoint of the loaded value rewrites the same bytes.
			if err := loaded.Checkpoint(f, dir); err != nil {
				t.Fatal(err)
			}
			assertGeneration(t, "re-checkpointed after the load", generationDigests(t, f, dir), tc.patched)
		})
	}
}

// TestPlainStoreBytesUnchanged is the plain kind's rows: register, two PATCHes
// (logged), a third (the checkpoint: snapshot rewritten, log dropped), a fourth
// (logged again) — every file on the medium after each step compared with the
// parent commit's bytes — then a restart that must load and replay, not
// rebuild.
func TestPlainStoreBytesUnchanged(t *testing.T) {
	keys := make([]int64, 64)
	for i := range keys {
		keys[i] = int64(7*i - 100)
	}
	g := graph.New(9, true)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 3}, {6, 7}} {
		g.MustAddEdge(e[0], e[1])
	}
	cases := []struct {
		name    string
		scheme  *core.Scheme
		data    []byte
		patches [4][][]byte
		// The snapshot as registered and as checkpointed by PATCH 3; the delta
		// log after PATCH 1, 2 and 4.
		registered, checkpointed string
		logs                     [3]string
	}{
		{
			name:   "keys",
			scheme: schemes.PointSelectionScheme(),
			data:   schemes.RelationFromKeys(keys),
			patches: [4][][]byte{
				{schemes.KeysDelta([]int64{1001})},
				{schemes.KeysDeleteDelta([]int64{-100, 1001}), schemes.KeysUpsertDelta([]int64{3, 4, 2000})},
				{schemes.KeysDelta([]int64{-7, 5})},
				{schemes.KeysDeleteDelta([]int64{2000})},
			},
			registered:   "a0d8206a992b2e5095a408e3252a1382fa7eb702d347acb3d396092df26c5f15",
			checkpointed: "30017418a29520aa584504b842bd7846ee43857d6b6dadcc4d3a6ed34d035420",
			logs: [3]string{
				"bf7c2dbfc1d1ac7a0beeb77b025923217b3e55eafe005fdbb76c593d0967b285",
				"af7cf3ad503df0a6792a27c1b727969e70b4b69e708472c5fa7552df13ec85b3",
				"e3e1aa0179d608827ef193543ba6b02d78045d61f2784d2affe6f3efde002c45",
			},
		},
		{
			name:   "graph",
			scheme: schemes.ReachabilityLabelsScheme(),
			data:   g.Encode(),
			patches: [4][][]byte{
				{schemes.EdgeUpsertDelta(2, 3)},
				{schemes.EdgeUpsertDelta(5, 6), schemes.EdgeDeleteDelta(0, 1)},
				{schemes.EdgeUpsertDelta(7, 8)},
				{schemes.EdgeUpsertDelta(8, 0)},
			},
			registered:   "cc9386a47cadc0a5083a59ea9ef18b6855b5961ac48c07676008ae2c9ec6dee2",
			checkpointed: "539544fddeecab592c2aac094ded2a86942558b265c2d9eff6af6d750a877a84",
			logs: [3]string{
				"e0f27d427e4ba9bf9ea322042f2e58f465aaf2e987fb0daeec894924cfa73115",
				"088d4e6ffd2b657b826b5aecfc6792b209b27f06048df51d5658a1fb406983f5",
				"14f8906964a015b0c59af28754eaf8fcd13d70ce96841455418bb1868d48ed1b",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const dir, id = "/data", "d"
			// steps[0] is the medium after registration, steps[k] after PATCH k.
			steps := [5]map[string]string{
				{"d.pitract": tc.registered},
				{"d.pitract": tc.registered, "d.pitract-log": tc.logs[0]},
				{"d.pitract": tc.registered, "d.pitract-log": tc.logs[1]},
				{"d.pitract": tc.checkpointed},
				{"d.pitract": tc.checkpointed, "d.pitract-log": tc.logs[2]},
			}
			f := faultfs.New()
			med := &store.Medium{Dir: dir, FS: f, CheckpointEvery: 3}
			reg := store.NewRegistryMedium(med)
			if _, err := reg.Register(id, tc.scheme, tc.data); err != nil {
				t.Fatal(err)
			}
			assertGeneration(t, "registered", generationDigests(t, f, dir), steps[0])
			version := uint64(0)
			for k, batch := range tc.patches {
				version += uint64(len(batch))
				if v, err := reg.ApplyDelta(id, batch); err != nil || v != version {
					t.Fatalf("PATCH %d: version %d, %v; want %d", k+1, v, err, version)
				}
				assertGeneration(t, fmt.Sprintf("after PATCH %d", k+1), generationDigests(t, f, dir), steps[k+1])
			}

			f.Restart()
			reg2 := store.NewRegistryMedium(med)
			loaded, err := reg2.Register(id, tc.scheme, tc.data)
			if err != nil {
				t.Fatal(err)
			}
			if !loaded.Loaded || loaded.Version() != version || reg2.PreprocessCount() != 0 || reg2.ReplayCount() != 1 {
				t.Fatalf("restart: loaded %v at version %d after %d Preprocess calls and %d replays, want a load at %d with the one logged batch replayed",
					loaded.Loaded, loaded.Version(), reg2.PreprocessCount(), reg2.ReplayCount(), version)
			}
		})
	}
}
