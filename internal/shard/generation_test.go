package shard

// A sharded checkpoint on disk — the manifest and the member snapshots it
// carries — is held here to SHA-256s. The members' ("file#i": the bytes of
// DecodeManifest(file).Shards[i]) were computed at the commit before shards
// stopped being store.Store values, when each was a file of its own: member
// snapshots are encoded from the committed value, not by Store.Snapshot, so
// these digests are the pin that a member's bytes have not moved since. The
// four whole-file digests were recomputed at the commit that moved the members
// into the manifest (format \x03; a \x02 manifest on disk is quarantined and
// the dataset rebuilt). The plain kind's files — snapshot and delta log — are
// held to the commit before store.Store became one committed value too.
//
// The six member digests of the sharded graph case were recomputed once, at
// the commit that stored the reachability closure over its condensation: every
// closure-matrix member's Π and the summary's overlay changed layout (class[v]
// + a k×k matrix where n² bits were), so a data dir written before it holds
// payloads this version refuses to read: a registration over them quarantines
// the file and rebuilds (TestOlderClosureLayoutOnDiskIsRebuilt). What the new bytes are is held
// by the reference builders (TestClosurePiBytesUnchanged,
// TestOverlaySummaryBytesUnchanged); these digests hold that they stay so.
// The keys case's members and both plain cases (keys, labels) kept their
// digests.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
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
// keyed by file name — and, under "name#i", every member snapshot a shard
// manifest carries.
func generationDigests(t *testing.T, f *faultfs.FS, dir string) map[string]string {
	t.Helper()
	names, err := f.ReadDirNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	digest := func(key string, b []byte) {
		sum := sha256.Sum256(b)
		out[key] = hex.EncodeToString(sum[:])
	}
	for _, name := range names {
		b, ok := f.DurableBytes(dir + "/" + name)
		if !ok {
			t.Fatalf("%s is listed but not durable", name)
		}
		digest(name, b)
		if strings.HasSuffix(name, ".pitract-shards") {
			m, err := DecodeManifest(b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, member := range m.Shards {
				digest(fmt.Sprintf("%s#%d", name, i), member)
			}
		}
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
		t.Fatalf("%s: %d digests of the medium, want %d:\n%s", step, len(got), len(want), strings.Join(lines, "\n"))
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Fatalf("%s: %s hashes to %q, want %s; the medium holds:\n%s", step, name, got[name], sum, strings.Join(lines, "\n"))
		}
	}
}

// TestShardGenerationBytesUnchanged registers a fixed key dataset and a fixed
// graph with three shards, PATCHes one batch holding a same-shard and a
// cross-shard delta, checkpoints, and compares the one file of each checkpoint
// and every member in it with the pinned bytes. A restart over the medium must
// then load the checkpoint, not rebuild it.
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
				"d.pitract-shards":   "5b6a72c1c19aacca9b532ba6d51a7184707e1ef3e48977b867ee91748ec54d5a",
				"d.pitract-shards#0": "0d01b010e7a23a93bc86eddc6a6e35fae9c3741e702e4ac75faf37dffccf2fee",
				"d.pitract-shards#1": "3f54735ac8a618291fd9731e77ca88bc62de2a77e4de604ead371f3680e8f8bf",
				"d.pitract-shards#2": "d8866227a92ebd2e30788d60ea02560f30dc1fc50afb28abf272b8fd726f92aa",
			},
			patched: map[string]string{
				"d.pitract-shards":   "5127f43d2a8d5a4b6991165dc1676c13920a580889db8064fdd1e2746604e27b",
				"d.pitract-shards#0": "4f62b8326ad6d88aa0c4fad5b1e6914c6836a9d207bf0bf1869d9fe39b3e2e1d",
				"d.pitract-shards#1": "5d6d44faf65426f88ac3cbf00adbd235d8ed85ed4e7c29c084ae6601f8f67db7",
				"d.pitract-shards#2": "dfa953837acce990e21da3e097a0696e775efd21deaeee76601382f7b4276704",
			},
		},
		{
			name:   "graph",
			scheme: schemes.ReachabilityScheme(),
			p:      RangePartitioner{},
			data:   g.Encode(),
			batch:  [][]byte{schemes.EdgeDelta(1, 4), schemes.EdgeDelta(11, 12)},
			registered: map[string]string{
				"d.pitract-shards":   "8f8aafc1f6e285da1cbcec743f7120cb3eda9b671bb25328a7d79c03e90669c1",
				"d.pitract-shards#0": "534b7dfb8d81b1fe34afe7c9c23f7e34125e6bbf9434e865a764978055ec63e4",
				"d.pitract-shards#1": "0527cbadbc170ea4071ee88d132b3991dd30f71cfdd391067f6a3790e1816253",
				"d.pitract-shards#2": "78c77d76eb4a16e66cf6d76c5bbee4f8579ee81cf827add86d101de02bd2a310",
			},
			patched: map[string]string{
				"d.pitract-shards":   "59d859d6c2ff34ed8e654c670f9ca28be307f91281e55deb674784be008ff37a",
				"d.pitract-shards#0": "107bb5eee38a8af1154d1d8d26e9f59f52c70c996b1614c429ebb42454979f51",
				"d.pitract-shards#1": "40dd99ca16929354daefbe444594431baa8a39b8b362f4b859ef26a33778cfef",
				"d.pitract-shards#2": "3a518f5208a4f80aa362ed3f6a130cd2324059f7c70e884dc6f4c5d2a580ddaa",
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

// TestOlderClosureLayoutOnDiskIsRebuilt: a data dir written before the closure
// was stored over its condensation holds artifacts that are intact — CRC,
// data digest, scheme name — in a layout this version does not read. A
// registration over it must not serve them (every answer would be the
// refusal, and re-registering would load them again): the file is
// quarantined, Π rebuilt from the posted data, and the next restart is a
// clean load. Plain: a closure-matrix snapshot holding n² bits. Sharded: a
// manifest whose summary carries the overlay as P² bits.
func TestOlderClosureLayoutOnDiskIsRebuilt(t *testing.T) {
	g := graph.CommunityGraph(3, 6, 5, 21)
	data, n := g.Encode(), g.N()
	want := graph.NewClosure(g)
	verify := func(t *testing.T, ds store.Dataset) {
		t.Helper()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				got, err := ds.Ask(context.Background(), schemes.NodePairQuery(u, v), store.Exact)
				if err != nil || got.Answer != want.Reach(u, v) {
					t.Fatalf("(%d,%d) = (%v, %v), want %v", u, v, got.Answer, err, want.Reach(u, v))
				}
			}
		}
	}

	t.Run("plain", func(t *testing.T) {
		// The layout of the commit before: header (n under the appendix flag)
		// ‖ n² bits, bit u·n+v ‖ uvarint len ‖ the graph.
		dense := binary.BigEndian.AppendUint64(nil, uint64(n)|schemes.ClosureGraphFlag)
		bits := make([]byte, (n*n+7)/8)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if want.Reach(u, v) {
					bits[(u*n+v)/8] |= 1 << ((u*n + v) % 8)
				}
			}
		}
		dense = append(binary.AppendUvarint(append(dense, bits...), uint64(len(data))), data...)
		scheme := schemes.ReachabilityScheme()
		var le *core.LayoutError
		if _, err := scheme.Prepare(dense); !errors.As(err, &le) {
			t.Fatalf("Prepare of the older layout returned %v, want a LayoutError", err)
		}
		dir := t.TempDir()
		old := &store.Store{ID: "g", Scheme: scheme, Prep: dense, DataSum: store.SumData(data)}
		if err := old.Checkpoint(store.OSFS, dir); err != nil {
			t.Fatal(err)
		}

		reg := store.NewRegistry(dir)
		st, err := reg.Register("g", scheme, data)
		if err != nil {
			t.Fatalf("register over an older-layout snapshot: %v", err)
		}
		if st.WasLoaded() || reg.PreprocessCount() != 1 || reg.QuarantineCount() != 1 {
			t.Fatalf("loaded=%v preprocess=%d quarantines=%d, want a rebuild and one quarantine", st.WasLoaded(), reg.PreprocessCount(), reg.QuarantineCount())
		}
		if _, err := os.Stat(store.QuarantinePath(store.SnapshotPath(dir, "g"))); err != nil {
			t.Fatalf("the older snapshot was not kept aside: %v", err)
		}
		verify(t, st)
		if _, err := reg.ApplyDelta("g", [][]byte{schemes.EdgeUpsertDelta(0, 1)}); err != nil {
			t.Fatalf("PATCH after the rebuild: %v", err)
		}
		reg2 := store.NewRegistry(dir)
		st2, err := reg2.Register("g", scheme, data)
		if err != nil || !st2.WasLoaded() || st2.Version() != 1 || reg2.QuarantineCount() != 0 {
			t.Fatalf("restart after the rebuild: loaded=%v version=%d quarantines=%d err=%v", st2.WasLoaded(), st2.Version(), reg2.QuarantineCount(), err)
		}
		verify(t, st2)
	})

	t.Run("sharded", func(t *testing.T) {
		// Labels members kept their bytes; only the summary's overlay moved.
		scheme := schemes.ReachabilityLabelsScheme()
		dir := t.TempDir()
		if _, err := RegisterSharded(store.NewRegistry(dir), "s", scheme, RangePartitioner{}, 3, data); err != nil {
			t.Fatal(err)
		}
		mb, err := os.ReadFile(ManifestPath(dir, "s"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := DecodeManifest(mb)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := decodeReachSummary(m.Summary)
		if err != nil {
			t.Fatal(err)
		}
		p := len(rs.portals)
		if p == 0 {
			t.Fatal("the scenario needs portals")
		}
		// The overlay as ⌈P²/8⌉ bytes where the condensed wire form is; which
		// bits are set does not matter to a reader that cannot frame them.
		m.Summary = append(m.Summary[:len(m.Summary)-rs.overlay.WireLen()], make([]byte, (p*p+7)/8)...)
		if err := os.WriteFile(ManifestPath(dir, "s"), EncodeManifest(m), 0o644); err != nil {
			t.Fatal(err)
		}

		reg := store.NewRegistry(dir)
		ss, err := RegisterSharded(reg, "s", scheme, RangePartitioner{}, 3, data)
		if err != nil {
			t.Fatalf("register over an older-layout generation: %v", err)
		}
		if ss.WasLoaded() || reg.PreprocessCount() != 3 || reg.QuarantineCount() != 1 {
			t.Fatalf("loaded=%v preprocess=%d quarantines=%d, want a rebuild of 3 shards and one quarantine", ss.WasLoaded(), reg.PreprocessCount(), reg.QuarantineCount())
		}
		verify(t, ss)
		reg2 := store.NewRegistry(dir)
		ss2, err := RegisterSharded(reg2, "s", scheme, RangePartitioner{}, 3, data)
		if err != nil || !ss2.WasLoaded() || reg2.QuarantineCount() != 0 {
			t.Fatalf("restart after the rebuild: loaded=%v quarantines=%d err=%v", ss2.WasLoaded(), reg2.QuarantineCount(), err)
		}
		verify(t, ss2)
	})
}
