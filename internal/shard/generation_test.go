package shard

// A sharded checkpoint on disk — the manifest and the member snapshots it
// carries — is held here to SHA-256s. The members' ("file#i": the bytes of
// store.DecodeManifest(file).Members[i]) were computed at the commit before shards
// stopped being store.Store values, when each was a file of its own: member
// snapshots are encoded from the committed value, not by Store.Snapshot, so
// these digests are the pin that a member's bytes have not moved since. The
// four whole-file digests were recomputed at the commit that moved the members
// into the manifest (format \x03; a \x02 manifest on disk is quarantined and
// the dataset rebuilt). The plain kind's snapshots are held to the commit
// before store.Store became one committed value too; its six delta-log digests
// were recomputed when every delta gained its kind header and the log magic
// became \x02 (a \x01 log is quarantined, TestPreTagLogIsQuarantined).
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
//
// Every snapshot digest — each file and member of both sharded cases, the
// plain snapshots as registered and as checkpointed — was recomputed once
// more at the commit that made the sorted key file an Elias–Fano sequence:
// the keys cases' Π changed layout (a tagged header, samples, high and low
// bits where 8-byte records were), and with it the snapshot format, whose
// prep section lost its codec byte (magic \x04; a \x03 snapshot, plain or a
// manifest's member, is quarantined and the dataset rebuilt,
// TestOlderSortedKeyLayoutOnDiskIsRebuilt). The graph cases' Π bytes did not
// move — only the snapshot framing around them. The six delta-log digests kept
// theirs.
//
// The four whole-manifest digests were recomputed once more when the
// reachability summary stopped storing what the assignment derives (magic
// PITRACTM\x05, TestOlderClosureLayoutOnDiskIsRebuilt): the graph case's
// summary is now n ‖ orientation ‖ cross-edge arc file ‖ overlay, and the
// keys case's file moved with the magic alone. No member's digest moved.
//
// Every file and member digest of both tests was recomputed once more when a
// dataset became one file format whatever its layout: a plain dataset's file
// is the manifest with one member (magic PITRACTM\x06, at <id>.pitract, where
// the sharded one was <id>.pitract-shards), the partitioner and assignment
// became one layout field, and a member snapshot lost its free-text notes
// (magic PITRACTS\x05; TestSnapshotLegacyVersionsAreUnknownFormats). Π did
// not move: under "name#i.pi" each member's Π is held to the digest it had
// before, and every delta-log digest kept its value.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
// keyed by file name — and, under "name#i" and "name#i.pi", every member
// snapshot a dataset's file carries and that member's Π.
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
		if strings.HasSuffix(name, ".pitract") {
			m, err := store.DecodeManifest(b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, member := range m.Members {
				snap, err := store.DecodeSnapshot(member)
				if err != nil {
					t.Fatalf("%s member %d: %v", name, i, err)
				}
				digest(fmt.Sprintf("%s#%d", name, i), member)
				digest(fmt.Sprintf("%s#%d.pi", name, i), snap.Prep)
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
			batch: [][]byte{schemes.KeysDelta([]int64{1001}), schemes.KeysDelta([]int64{-99, 3, 4, 5, 6, 2000})},
			registered: map[string]string{
				"d.pitract":      "4ebfcdb1b5c8c02fddb2a012e3336a7346a814c53dd98b5e1e09b0467357271c",
				"d.pitract#0":    "69bd03f6063b5c16e15fbc73df18e66f2101118565ef84733d8f80644f2d2def",
				"d.pitract#1":    "e0248dda57577319405e3dc3ce7eccd45e1f591ba4fdd20c0168f6cef9517f9f",
				"d.pitract#2":    "e6db78f3ccdba06f738f7768f6a822ead36b959759ffb88cdcb57de82387bff1",
				"d.pitract#0.pi": "fa5a2c738e48e428ff2e446185173f99c5bc55fefa58ac15e7aab09efcf88347",
				"d.pitract#1.pi": "24260ee506a5a390f207918e39af34ac0f22569d0aaa6c90440cd04ab4ee4af4",
				"d.pitract#2.pi": "6f9163a646cf8acb29bc5a757becec44de469fcb540870f75020606ce7c02da7",
			},
			patched: map[string]string{
				"d.pitract":      "9933bab30b6c3064343cd22c89aaf9a68315c54efce702448f805860820750cb",
				"d.pitract#0":    "a41ea748953830b6d40dcd59e3e9c0ac70c4e28f09fece3de5913d6358329f8b",
				"d.pitract#1":    "efee7ea5943df5d3c68a6aeaaff4b74f206e02b24353e22a352c6b130b779072",
				"d.pitract#2":    "15bcd98dafb69e7c2421fe3852d2cc27974cb0fd63a4524860a6f7a84d6ebc0d",
				"d.pitract#0.pi": "240d0d88333da41fa9f18d934e90767ea6439643e5e37a1c0960d5f915f7dcb4",
				"d.pitract#1.pi": "c91b2838a532f6a9994fe888a74ed59cb4f546ae57bcc8c27f2a9af063ab02a3",
				"d.pitract#2.pi": "6f9163a646cf8acb29bc5a757becec44de469fcb540870f75020606ce7c02da7",
			},
		},
		{
			name:   "graph",
			scheme: schemes.ReachabilityScheme(),
			p:      RangePartitioner{},
			data:   g.Encode(),
			batch:  [][]byte{schemes.EdgeDelta(1, 4), schemes.EdgeDelta(11, 12)},
			registered: map[string]string{
				"d.pitract":      "b89cf9d828495931e2063fd66106af3ee651efcc1da0e09932ba80993237fecf",
				"d.pitract#0":    "f08af1d40e6079586cdd6463d037fc8ee7e4de7ced46739f409fc381fc9b6380",
				"d.pitract#1":    "2d2f465c9aca18c06d21d172ab8c76ef361de9e8c636790673b9f2e45fa55fc7",
				"d.pitract#2":    "e17c8614d7e0399ec3541b636565c9554856f7015ecc9e413bd5e6985eef750e",
				"d.pitract#0.pi": "235905598eef2d073982d7356b4959ee64cb2ae7e6dd5f006473334da0622d06",
				"d.pitract#1.pi": "c4336666d930f9b675164e50ee575911a986019ccd2f0fb83df79d5497406b98",
				"d.pitract#2.pi": "e439fc81fa2835add456bd244206fc2bd0fd64a2d88a72cc89b5cec22edcd1b0",
			},
			patched: map[string]string{
				"d.pitract":      "b625bc321fee3ecc7be57592650ec9f18a585233c8c2ce8f64a404beb998ee80",
				"d.pitract#0":    "d30e73f277067e0d3a8cae8d0fd1c4503f77f315cc7b3cb2fed28a1c88917635",
				"d.pitract#1":    "784c4b6cfecef80c0d2b6b8c7c2090b7350b62ea00c5fc40f867b03fd0623927",
				"d.pitract#2":    "1e1db9a208c0194712b3b965f6dd824521078bb39e718a9627fe16f73a1227a8",
				"d.pitract#0.pi": "ae9500284e903921c48ba0db8112c3dc674d02998169834d5383ddf483cb098a",
				"d.pitract#1.pi": "c4336666d930f9b675164e50ee575911a986019ccd2f0fb83df79d5497406b98",
				"d.pitract#2.pi": "e439fc81fa2835add456bd244206fc2bd0fd64a2d88a72cc89b5cec22edcd1b0",
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
		// The file, its member and the member's Π as registered and as
		// checkpointed by PATCH 3; the delta log after PATCH 1, 2 and 4.
		registered, checkpointed [3]string
		logs                     [3]string
	}{
		{
			name:   "keys",
			scheme: schemes.PointSelectionScheme(),
			data:   schemes.RelationFromKeys(keys),
			patches: [4][][]byte{
				{schemes.KeysDelta([]int64{1001})},
				{schemes.KeysDeleteDelta([]int64{-100, 1001}), schemes.KeysDelta([]int64{3, 4, 2000})},
				{schemes.KeysDelta([]int64{-7, 5})},
				{schemes.KeysDeleteDelta([]int64{2000})},
			},
			registered:   [3]string{"b988d4987dc19f95121a32071da26939ba21481e62d86896945eeab211617556", "7ad541d3ba48efa9f4626fb0fc8209968b742a355cc9cc630ec9f3a46141ee57", "a6d29f6233f9b2ca30086995b766caa4dd66d06320c23a6309d8cdda8ca6aebb"},
			checkpointed: [3]string{"b2f3861f383f3ddc18e9f01e6f05743a91c2d4c0e4a16806a09d406a14922a18", "ad1c097ab242011e310b7c783eeef9c53f9bee5805ee705ab7902aa532c4a599", "7621397d5b9655a8c746c07dbc12c761da6cebf06a4b49f1c60c251336d457a4"},
			logs: [3]string{
				"05d6a79c45b9089326c8974bf14b102fd26bebd9f5be1e094d1b486252036759",
				"a5bb5b11e943183ef90fe1fb64fc74735f8a624935792174622703443eba605c",
				"cb46217617a2013a38a6195354651e42ea9fbc1f38f84a56b2414655e5c76371",
			},
		},
		{
			name:   "graph",
			scheme: schemes.ReachabilityLabelsScheme(),
			data:   g.Encode(),
			patches: [4][][]byte{
				{schemes.EdgeDelta(2, 3)},
				{schemes.EdgeDelta(5, 6), schemes.EdgeDeleteDelta(0, 1)},
				{schemes.EdgeDelta(7, 8)},
				{schemes.EdgeDelta(8, 0)},
			},
			registered:   [3]string{"9aa92654ffec447f137de9b2aa716ac31a8b8a9c2fe6fff7ea9db948244d25f5", "bb9a4055ded408b28d4e910285991ea047b610af98a5129fc514aedf0d200ed6", "114929e92b75b834aef9ed5a80db0fc1a430f2681125110808c27a05137c72af"},
			checkpointed: [3]string{"c05ce4fe2fe441e127a15925566cee8fad6eef5649f049b51ad4cca09be3d1c3", "645e3708f44262583fb34cef6a12533b7129a1d33317f7daa666b11112db6d41", "8c60702c3bcc45554126e0d9737fc4eb4ad9226b7bcd015eb03bac1e00a27c91"},
			logs: [3]string{
				"3d34b458ede341e9baab0bf2c6f2de74c15da3ef0a206ac297ffe7aa96f1d3e6",
				"9d8aac086136f4c2f51fab88ebc4d07bac61d6a302cd9c5adca8ec23ace024fe",
				"8d4a4456cfee3ea6f1681b086f577de19de503b0a42b32273fb90c100e906aeb",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const dir, id = "/data", "d"
			// steps[0] is the medium after registration, steps[k] after PATCH k.
			file := func(digests [3]string, log ...string) map[string]string {
				m := map[string]string{"d.pitract": digests[0], "d.pitract#0": digests[1], "d.pitract#0.pi": digests[2]}
				for _, l := range log {
					m["d.pitract-log"] = l
				}
				return m
			}
			steps := [5]map[string]string{
				file(tc.registered),
				file(tc.registered, tc.logs[0]),
				file(tc.registered, tc.logs[1]),
				file(tc.checkpointed),
				file(tc.checkpointed, tc.logs[2]),
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
// took its current layout holds artifacts that are intact — CRC, data digest,
// scheme name — in a layout this version does not read. A registration over
// it must not serve them (every answer would be the refusal, and
// re-registering would load them again): the file is quarantined, Π rebuilt
// from the posted data, and the next restart is a clean load. Plain: a
// closure-matrix snapshot holding n² bits, and one holding the condensation
// with 2-byte class ids and the graph's uvarint encoding. Sharded: a manifest
// whose summary carries the overlay as P² bits, a PITRACTM\x03 manifest — the
// version whose overlay gave every class id two bytes — and a PITRACTM\x04
// one, whose summary stored what the assignment derives. A PITRACTM\x05
// manifest, the last written at <id>.pitract-shards, is not at the dataset's
// path at all: it is neither read nor removed, and the dataset is built anew.
func TestOlderClosureLayoutOnDiskIsRebuilt(t *testing.T) {
	g := graph.CommunityGraph(3, 6, 5, 21)
	data, n := g.Encode(), g.N()
	want := graph.NewClosure(g)
	verify := func(t *testing.T, ds store.Dataset) {
		t.Helper()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				got, err := ds.Ask(context.Background(), schemes.NodePairQuery(u, v))
				if err != nil || got.Answer != want.Reach(u, v) {
					t.Fatalf("(%d,%d) = (%v, %v), want %v", u, v, got.Answer, err, want.Reach(u, v))
				}
			}
		}
	}

	// The dense layout: header (n under the appendix flag) ‖ n² bits, bit
	// u·n+v ‖ uvarint len ‖ the graph.
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
	// The uvarint layout: header (n under the appendix and condensed flags) ‖
	// k ‖ a 2-byte id per vertex ‖ the rows, as today's form ends ‖ uvarint
	// len ‖ the graph.
	cc, err := graph.NewCondensedClosure(g)
	if err != nil {
		t.Fatal(err)
	}
	wire, k := cc.AppendWire(nil), cc.Classes()
	uvarint := binary.BigEndian.AppendUint64(nil, uint64(n)|schemes.ClosureGraphFlag|1<<61)
	uvarint = binary.LittleEndian.AppendUint32(uvarint, uint32(k))
	for v := 0; v < n; v++ {
		uvarint = binary.LittleEndian.AppendUint16(uvarint, uint16(cc.Class(v)))
	}
	uvarint = append(uvarint, wire[len(wire)-8*k*((k+63)/64):]...)
	uvarint = append(binary.AppendUvarint(uvarint, uint64(len(data))), data...)

	for name, old := range map[string][]byte{"plain": dense, "plain-uvarint": uvarint} {
		t.Run(name, func(t *testing.T) {
			scheme := schemes.ReachabilityScheme()
			var le *core.LayoutError
			if _, err := scheme.Prepare(old); !errors.As(err, &le) {
				t.Fatalf("Prepare of the older layout returned %v, want a LayoutError", err)
			}
			dir := t.TempDir()
			st := &store.Store{ID: "g", Scheme: scheme, Prep: old, DataSum: store.SumData(data)}
			if err := st.Checkpoint(store.OSFS, dir); err != nil {
				t.Fatal(err)
			}

			reg := store.NewRegistry(dir)
			ds, err := reg.Register("g", scheme, data)
			if err != nil {
				t.Fatalf("register over an older-layout snapshot: %v", err)
			}
			if ds.WasLoaded() || reg.PreprocessCount() != 1 || reg.QuarantineCount() != 1 {
				t.Fatalf("loaded=%v preprocess=%d quarantines=%d, want a rebuild and one quarantine", ds.WasLoaded(), reg.PreprocessCount(), reg.QuarantineCount())
			}
			if _, err := os.Stat(store.QuarantinePath(store.DatasetPath(dir, "g"))); err != nil {
				t.Fatalf("the older snapshot was not kept aside: %v", err)
			}
			verify(t, ds)
			if _, err := reg.ApplyDelta("g", [][]byte{schemes.EdgeDelta(0, 1)}); err != nil {
				t.Fatalf("PATCH after the rebuild: %v", err)
			}
			reg2 := store.NewRegistry(dir)
			ds2, err := reg2.Register("g", scheme, data)
			if err != nil || !ds2.WasLoaded() || ds2.Version() != 1 || reg2.QuarantineCount() != 0 {
				t.Fatalf("restart after the rebuild: loaded=%v version=%d quarantines=%d err=%v", ds2.WasLoaded(), ds2.Version(), reg2.QuarantineCount(), err)
			}
			verify(t, ds2)
		})
	}

	// A manifest under an older magic is refused there, before its members
	// or summary are read; the CRC does not cover the magic. Version 3 is
	// today's payload under the old magic; version 4 carries the summary that
	// version wrote — every vertex's local id, the cross edges as uvarint
	// pairs, the portal list and each portal's shard before the overlay.
	for _, old := range []struct {
		name, magic string
		summary     func(t *testing.T, m *store.Manifest, asn Assignment) []byte
	}{
		{"sharded-v3", "PITRACTM\x03", func(_ *testing.T, m *store.Manifest, _ Assignment) []byte { return m.Summary }},
		{"sharded-v4", "PITRACTM\x04", v4Summary},
	} {
		t.Run(old.name, func(t *testing.T) {
			scheme := schemes.ReachabilityScheme()
			dir := t.TempDir()
			built, err := RegisterSharded(store.NewRegistry(dir), "s", scheme, RangePartitioner{}, 3, data)
			if err != nil {
				t.Fatal(err)
			}
			mb, err := os.ReadFile(store.DatasetPath(dir, "s"))
			if err != nil {
				t.Fatal(err)
			}
			m, err := store.DecodeManifest(mb)
			if err != nil {
				t.Fatal(err)
			}
			m.Summary = old.summary(t, m, built.Asn)
			mb = store.EncodeManifest(m)
			copy(mb, old.magic)
			if err := os.WriteFile(store.DatasetPath(dir, "s"), mb, 0o644); err != nil {
				t.Fatal(err)
			}
			reg := store.NewRegistry(dir)
			ss, err := RegisterSharded(reg, "s", scheme, RangePartitioner{}, 3, data)
			if err != nil {
				t.Fatalf("register over a %s manifest: %v", old.name, err)
			}
			if ss.WasLoaded() || reg.PreprocessCount() != 3 || reg.QuarantineCount() != 1 {
				t.Fatalf("loaded=%v preprocess=%d quarantines=%d, want a rebuild of 3 shards and one quarantine", ss.WasLoaded(), reg.PreprocessCount(), reg.QuarantineCount())
			}
			q, err := os.ReadFile(store.QuarantinePath(store.DatasetPath(dir, "s")))
			if err != nil || !bytes.Equal(q, mb) {
				t.Fatalf("the %s manifest was not kept aside: %v", old.name, err)
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

	t.Run("sharded-v5", func(t *testing.T) {
		scheme := schemes.ReachabilityScheme()
		dir := t.TempDir()
		if _, err := RegisterSharded(store.NewRegistry(dir), "s", scheme, RangePartitioner{}, 3, data); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(store.DatasetPath(dir, "s"))
		if err != nil {
			t.Fatal(err)
		}
		// The old name holds a manifest under the old magic; the dataset's path
		// holds nothing.
		old := filepath.Join(dir, "s.pitract-shards")
		copy(file, "PITRACTM\x05")
		if err := os.WriteFile(old, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(store.DatasetPath(dir, "s")); err != nil {
			t.Fatal(err)
		}
		reg := store.NewRegistry(dir)
		ss, err := RegisterSharded(reg, "s", scheme, RangePartitioner{}, 3, data)
		if err != nil {
			t.Fatalf("register beside a %s manifest: %v", "PITRACTM\x05", err)
		}
		if ss.WasLoaded() || reg.PreprocessCount() != 3 || reg.QuarantineCount() != 0 {
			t.Fatalf("loaded=%v preprocess=%d quarantines=%d, want a fresh build of 3 shards and no quarantine", ss.WasLoaded(), reg.PreprocessCount(), reg.QuarantineCount())
		}
		if kept, err := os.ReadFile(old); err != nil || !bytes.Equal(kept, file) {
			t.Fatalf("the %s file was touched: %v", old, err)
		}
		verify(t, ss)
		reg2 := store.NewRegistry(dir)
		ss2, err := RegisterSharded(reg2, "s", scheme, RangePartitioner{}, 3, data)
		if err != nil || !ss2.WasLoaded() || reg2.QuarantineCount() != 0 {
			t.Fatalf("restart after the build: loaded=%v quarantines=%d err=%v", ss2.WasLoaded(), reg2.QuarantineCount(), err)
		}
		verify(t, ss2)
	})

	t.Run("sharded", func(t *testing.T) {
		// Labels members kept their bytes; only the summary's overlay moved.
		scheme := schemes.ReachabilityLabelsScheme()
		dir := t.TempDir()
		built, err := RegisterSharded(store.NewRegistry(dir), "s", scheme, RangePartitioner{}, 3, data)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := os.ReadFile(store.DatasetPath(dir, "s"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := store.DecodeManifest(mb)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := decodeReachSummary(m.Summary, built.Asn)
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
		if err := os.WriteFile(store.DatasetPath(dir, "s"), store.EncodeManifest(m), 0o644); err != nil {
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

// v4Summary lays out m's reachability summary as a PITRACTM\x04 manifest
// held it: uvarint n ‖ n uvarint local ids ‖ orientation ‖ uvarint C ‖ C
// uvarint (u, v) pairs ‖ uvarint P ‖ P uvarint portals ‖ P uvarint portal
// shards ‖ overlay.
func v4Summary(t *testing.T, m *store.Manifest, asn Assignment) []byte {
	t.Helper()
	rs, err := decodeReachSummary(m.Summary, asn)
	if err != nil {
		t.Fatal(err)
	}
	b := binary.AppendUvarint(nil, uint64(rs.n))
	for _, l := range rs.local {
		b = binary.AppendUvarint(b, uint64(l))
	}
	b = append(b, 1) // directed
	b = binary.AppendUvarint(b, uint64(rs.cross.Len()))
	if err := rs.cross.Each(func(u, v int) error {
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(u)), uint64(v))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	b = binary.AppendUvarint(b, uint64(len(rs.portals)))
	for _, p := range rs.portals {
		b = binary.AppendUvarint(b, uint64(p))
	}
	for _, p := range rs.portals {
		b = binary.AppendUvarint(b, uint64(rs.shardOf[p]))
	}
	return rs.overlay.AppendWire(b)
}

// parentKeySnapshot encodes a snapshot of a sorted-key Π the way the commit
// before the Elias–Fano key file wrote it: magic PITRACTS\x03, and the Π
// section a codec byte (1, delta-varint) before uvarint count ‖ uvarint first
// ‖ uvarint gaps of the n×8-byte records — biased keys, big-endian.
func parentKeySnapshot(snap *store.Snapshot, keys []int64) []byte {
	sec := binary.AppendUvarint([]byte{1}, uint64(len(keys)))
	prev := uint64(0)
	for i, k := range keys {
		r := uint64(k) ^ 1<<63
		if i > 0 {
			r -= prev
		}
		sec = binary.AppendUvarint(sec, r)
		prev = uint64(k) ^ 1<<63
	}
	meta := binary.AppendUvarint(append([]byte(nil), snap.DataSum[:]...), snap.Version)
	payload := core.PadPair(core.PadPair([]byte(snap.SchemeName), []byte("O(|D| log |D|) / O(log |D|)")), core.PadPair(meta, sec))
	out := binary.BigEndian.AppendUint32([]byte("PITRACTS\x03"), crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// TestOlderSortedKeyLayoutOnDiskIsRebuilt: a data dir written before the sorted
// key file became an Elias–Fano sequence holds intact artifacts — CRC, data
// digest, scheme name — in a format this version does not read. Plain: a
// PITRACTS\x03 snapshot whose Π section is delta-varints of 8-byte records.
// Sharded: a manifest in the current format whose three
// members are such snapshots. Each is quarantined at the snapshot magic, Π
// rebuilt from the posted data and answering the same, and the next restart is
// a clean load. The 8-byte records themselves, handed to a reader, are a
// core.LayoutError.
func TestOlderSortedKeyLayoutOnDiskIsRebuilt(t *testing.T) {
	keys := make([]int64, 200)
	for i := range keys {
		keys[i] = int64(5*i - 300)
	}
	verify := func(t *testing.T, ds store.Dataset) {
		t.Helper()
		for k := int64(-310); k < 710; k++ {
			got, err := ds.Ask(context.Background(), schemes.PointQuery(k))
			if want := k >= -300 && k < 700 && k%5 == 0; err != nil || got.Answer != want {
				t.Fatalf("key %d = (%v, %v), want %v", k, got.Answer, err, want)
			}
		}
	}

	t.Run("records", func(t *testing.T) {
		var old []byte
		for _, k := range keys {
			old = binary.BigEndian.AppendUint64(old, uint64(k)^1<<63)
		}
		var le *core.LayoutError
		for _, s := range []*core.Scheme{schemes.PointSelectionScheme(), schemes.RangeSelectionScheme(), schemes.ListMembershipScheme()} {
			if _, err := s.Answer(old, schemes.PointQuery(5)); !errors.As(err, &le) {
				t.Errorf("%s Answer: %v, want a LayoutError", s.Name(), err)
			}
			if _, err := s.Prepare(old); !errors.As(err, &le) {
				t.Errorf("%s Prepare: %v, want a LayoutError", s.Name(), err)
			}
			if _, err := schemes.IncrementalForScheme(s.Name()).ApplyDelta(old, schemes.KeysDelta([]int64{1})); !errors.As(err, &le) {
				t.Errorf("%s ApplyDelta: %v, want a LayoutError", s.Name(), err)
			}
		}
	})

	t.Run("plain", func(t *testing.T) {
		scheme, data := schemes.PointSelectionScheme(), schemes.RelationFromKeys(keys)
		dir := t.TempDir()
		snap := &store.Snapshot{SchemeName: scheme.Name(), DataSum: store.SumData(data), Version: 3}
		if err := os.WriteFile(store.DatasetPath(dir, "k"), parentKeySnapshot(snap, keys), 0o644); err != nil {
			t.Fatal(err)
		}
		reg := store.NewRegistry(dir)
		st, err := reg.Register("k", scheme, data)
		if err != nil {
			t.Fatalf("register over an older-format snapshot: %v", err)
		}
		if st.WasLoaded() || st.Version() != 0 || reg.PreprocessCount() != 1 || reg.QuarantineCount() != 1 {
			t.Fatalf("loaded=%v version=%d preprocess=%d quarantines=%d, want a rebuild and one quarantine", st.WasLoaded(), st.Version(), reg.PreprocessCount(), reg.QuarantineCount())
		}
		if _, err := os.Stat(store.QuarantinePath(store.DatasetPath(dir, "k"))); err != nil {
			t.Fatalf("the older snapshot was not kept aside: %v", err)
		}
		verify(t, st)
		reg2 := store.NewRegistry(dir)
		st2, err := reg2.Register("k", scheme, data)
		if err != nil || !st2.WasLoaded() || reg2.PreprocessCount() != 0 || reg2.QuarantineCount() != 0 {
			t.Fatalf("restart after the rebuild: loaded=%v preprocess=%d quarantines=%d err=%v", st2.WasLoaded(), reg2.PreprocessCount(), reg2.QuarantineCount(), err)
		}
		verify(t, st2)
	})

	t.Run("sharded", func(t *testing.T) {
		scheme, data := schemes.ListMembershipScheme(), schemes.EncodeList(keys)
		dir := t.TempDir()
		ss, err := RegisterSharded(store.NewRegistry(dir), "s", scheme, HashPartitioner{}, 3, data)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := os.ReadFile(store.DatasetPath(dir, "s"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := store.DecodeManifest(mb)
		if err != nil {
			t.Fatal(err)
		}
		// Each member rewritten as the parent wrote it: its own keys, in order.
		for i, enc := range m.Members {
			snap, err := store.DecodeSnapshot(enc)
			if err != nil {
				t.Fatal(err)
			}
			var own []int64
			for _, k := range keys {
				if ss.Asn.Shard(k) == i {
					own = append(own, k)
				}
			}
			m.Members[i] = parentKeySnapshot(snap, own)
		}
		if err := os.WriteFile(store.DatasetPath(dir, "s"), store.EncodeManifest(m), 0o644); err != nil {
			t.Fatal(err)
		}

		reg := store.NewRegistry(dir)
		ss2, err := RegisterSharded(reg, "s", scheme, HashPartitioner{}, 3, data)
		if err != nil {
			t.Fatalf("register over an older-format manifest: %v", err)
		}
		if ss2.WasLoaded() || reg.PreprocessCount() != 3 || reg.QuarantineCount() != 1 {
			t.Fatalf("loaded=%v preprocess=%d quarantines=%d, want a rebuild of 3 shards and one quarantine", ss2.WasLoaded(), reg.PreprocessCount(), reg.QuarantineCount())
		}
		if _, err := os.Stat(store.QuarantinePath(store.DatasetPath(dir, "s"))); err != nil {
			t.Fatalf("the older manifest was not kept aside: %v", err)
		}
		verify(t, ss2)
		reg2 := store.NewRegistry(dir)
		ss3, err := RegisterSharded(reg2, "s", scheme, HashPartitioner{}, 3, data)
		if err != nil || !ss3.WasLoaded() || reg2.PreprocessCount() != 0 || reg2.QuarantineCount() != 0 {
			t.Fatalf("restart after the rebuild: loaded=%v preprocess=%d quarantines=%d err=%v", ss3.WasLoaded(), reg2.PreprocessCount(), reg2.QuarantineCount(), err)
		}
		verify(t, ss3)
	})
}
