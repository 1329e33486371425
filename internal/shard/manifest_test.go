package shard

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		SchemeName:  "reachability/closure-matrix",
		DataSum:     store.SumData([]byte("raw")),
		Partitioner: "range",
		Assignment:  []byte{rangeAssignmentTag, 2, 2, 4},
		Summary:     []byte("overlay"),
		ShardSums:   make([][32]byte, 3),
	}
	for i := range m.ShardSums {
		m.ShardSums[i] = store.SumData([]byte{byte(i)})
	}
	got, err := DecodeManifest(EncodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemeName != m.SchemeName || got.Partitioner != m.Partitioner ||
		got.DataSum != m.DataSum || !bytes.Equal(got.Assignment, m.Assignment) ||
		!bytes.Equal(got.Summary, m.Summary) || len(got.ShardSums) != 3 {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	for i := range m.ShardSums {
		if got.ShardSums[i] != m.ShardSums[i] {
			t.Fatalf("shard sum %d mismatch", i)
		}
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	m := &Manifest{SchemeName: "s", Partitioner: "hash", Assignment: []byte{hashAssignmentTag, 2}}
	enc := EncodeManifest(m)
	cases := map[string][]byte{
		"empty":          {},
		"short":          enc[:5],
		"bad-magic":      append([]byte("XITRACTM\x02"), enc[9:]...),
		"bad-version":    append([]byte("PITRACTM\x03"), enc[9:]...),
		"old-version":    append([]byte("PITRACTM\x01"), enc[9:]...),
		"flipped-byte":   append(append([]byte{}, enc[:len(enc)-1]...), enc[len(enc)-1]^0xff),
		"truncated-tail": enc[:len(enc)-2],
	}
	for name, b := range cases {
		if _, err := DecodeManifest(b); err == nil {
			t.Errorf("%s: corrupt manifest decoded without error", name)
		}
	}
}

// shardedFixture registers a persisted sharded reachability dataset and
// returns the registry dir, the graph, and the scheme.
func shardedFixture(t *testing.T) (string, *graph.Graph, *core.Scheme) {
	t.Helper()
	dir := t.TempDir()
	g := graph.CommunityGraph(3, 8, 12, 5)
	scheme := schemes.ReachabilityScheme()
	reg := store.NewRegistry(dir)
	if _, err := RegisterSharded(reg, "g", scheme, RangePartitioner{}, 3, g.Encode()); err != nil {
		t.Fatal(err)
	}
	return dir, g, scheme
}

// TestShardedPersistenceReload restarts the registry over the same
// directory: every shard reloads from its snapshot (zero new Preprocess
// calls) and answers identically.
func TestShardedPersistenceReload(t *testing.T) {
	dir, g, _ := shardedFixture(t)

	var calls atomic.Int64
	counted := *schemes.ReachabilityScheme()
	inner := counted.Preprocess
	counted.Preprocess = func(d []byte) ([]byte, error) {
		calls.Add(1)
		return inner(d)
	}
	reg2 := store.NewRegistry(dir)
	ss, err := RegisterSharded(reg2, "g", &counted, RangePartitioner{}, 3, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("restart preprocessed %d shards, want 0 (snapshot reload)", calls.Load())
	}
	if !ss.WasLoaded() || reg2.LoadCount() != 3 {
		t.Fatalf("restart did not reload: loaded=%v loads=%d", ss.WasLoaded(), reg2.LoadCount())
	}
	for u := 0; u < g.N(); u += 5 {
		for v := 0; v < g.N(); v += 7 {
			got, err := ss.Answer(schemes.NodePairQuery(u, v))
			if err != nil {
				t.Fatal(err)
			}
			if want := g.Reachable(u, v); got != want {
				t.Fatalf("reloaded shard store: reach(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}

	// A different partitioner must not silently serve the old layout.
	var calls2 atomic.Int64
	counted2 := *schemes.ReachabilityScheme()
	inner2 := counted2.Preprocess
	counted2.Preprocess = func(d []byte) ([]byte, error) {
		calls2.Add(1)
		return inner2(d)
	}
	reg3 := store.NewRegistry(dir)
	ss3, err := RegisterSharded(reg3, "g", &counted2, HashPartitioner{}, 3, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if ss3.WasLoaded() || calls2.Load() != 3 {
		t.Fatalf("partitioner change: loaded=%v calls=%d, want a fresh 3-shard build", ss3.WasLoaded(), calls2.Load())
	}
}

// TestShardedRegistrationAtomicity: a registration that dies mid-build —
// error or panic on one shard's Preprocess — must leave no catalog entry,
// no manifest, and a retryable id. Stray shard snapshot files without a
// manifest must not resurrect as a dataset.
func TestShardedRegistrationAtomicity(t *testing.T) {
	dir := t.TempDir()
	g := graph.CommunityGraph(3, 8, 12, 5)
	reg := store.NewRegistry(dir)

	// Preprocess fails on every part after the first: some shards succeed,
	// the build as a whole must not.
	var n atomic.Int64
	failing := *schemes.ReachabilityScheme()
	inner := failing.Preprocess
	failing.Preprocess = func(d []byte) ([]byte, error) {
		if n.Add(1) > 1 {
			return nil, fmt.Errorf("disk on fire")
		}
		return inner(d)
	}
	if _, err := RegisterSharded(reg, "g", &failing, RangePartitioner{}, 3, g.Encode()); err == nil {
		t.Fatal("partially failing build must error")
	}
	if _, ok := reg.GetDataset("g"); ok {
		t.Fatal("failed sharded registration left a catalog entry")
	}
	if _, err := os.Stat(ManifestPath(dir, "g")); !os.IsNotExist(err) {
		t.Fatalf("failed registration left a manifest (err=%v)", err)
	}

	// Panicking Preprocess: same story, and the id must stay retryable.
	panicking := *schemes.ReachabilityScheme()
	panicking.Preprocess = func(d []byte) ([]byte, error) { panic("hostile") }
	if _, err := RegisterSharded(reg, "g", &panicking, RangePartitioner{}, 3, g.Encode()); err == nil {
		t.Fatal("panicking build must surface an error")
	}
	if _, ok := reg.GetDataset("g"); ok {
		t.Fatal("panicked sharded registration left a catalog entry")
	}

	// Simulate a crash after shard files but before the manifest: stray
	// snapshot files must be invisible (no manifest = no dataset) and the
	// next registration rebuilds cleanly over them.
	stray := store.EncodeSnapshot(&store.Snapshot{SchemeName: "reachability/closure-matrix"})
	if err := store.WriteFileAtomicFS(store.OSFS, ShardSnapshotPath(dir, "g", 0), stray); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardedFS(store.OSFS, dir, "g", schemes.ReachabilityScheme()); err == nil {
		t.Fatal("LoadSharded without a manifest must fail")
	}
	ss, err := RegisterSharded(reg, "g", schemes.ReachabilityScheme(), RangePartitioner{}, 3, g.Encode())
	if err != nil {
		t.Fatalf("retry after failures: %v", err)
	}
	if ss.WasLoaded() {
		t.Fatal("retry must rebuild, not trust stray shard files")
	}

	// Concurrent registrations of one id share a single build.
	reg2 := store.NewRegistry("")
	var builds atomic.Int64
	counting := *schemes.ReachabilityScheme()
	inner2 := counting.Preprocess
	counting.Preprocess = func(d []byte) ([]byte, error) {
		builds.Add(1)
		return inner2(d)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	stores := make([]*ShardedStore, goroutines)
	errs := make([]error, goroutines)
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			stores[i], errs[i] = RegisterSharded(reg2, "g", &counting, HashPartitioner{}, 2, g.Encode())
		}(i)
	}
	wg.Wait()
	for i := range stores {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if stores[i] != stores[0] {
			t.Fatalf("goroutine %d received a different sharded store", i)
		}
	}
	if builds.Load() != 2 {
		t.Fatalf("Preprocess ran %d times, want 2 (one per shard, once per id)", builds.Load())
	}
}

// TestShardedAndPlainSnapshotNamespacesDisjoint: a plain dataset whose id
// matches a sharded dataset's shard-file stem ("g.shard000") must not
// clobber — or be clobbered by — the sharded dataset's snapshot files;
// both must reload across a restart.
func TestShardedAndPlainSnapshotNamespacesDisjoint(t *testing.T) {
	dir, g, scheme := shardedFixture(t) // sharded "g", 3 range shards
	reg := store.NewRegistry(dir)
	plainData := graph.CommunityGraph(2, 6, 4, 8).Encode()
	if _, err := reg.Register("g.shard000", scheme, plainData); err != nil {
		t.Fatal(err)
	}

	reg2 := store.NewRegistry(dir)
	ss, err := RegisterSharded(reg2, "g", scheme, RangePartitioner{}, 3, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !ss.WasLoaded() {
		t.Fatal("sharded dataset failed to reload — a plain id clobbered a shard snapshot")
	}
	st, err := reg2.Register("g.shard000", scheme, plainData)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Loaded {
		t.Fatal("plain dataset failed to reload — a shard file clobbered its snapshot")
	}
}

// TestShardedCorruptSnapshotFailsOpen: a manifest whose shard snapshot is
// missing, truncated, or bit-flipped must fail LoadSharded with a clean
// error — and a persistent registry must quietly rebuild instead of
// serving the damaged artifact.
func TestShardedCorruptSnapshotFailsOpen(t *testing.T) {
	for _, tamper := range []struct {
		name string
		do   func(t *testing.T, path string)
	}{
		{"missing", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tamper.name, func(t *testing.T) {
			dir, g, scheme := shardedFixture(t)
			tamper.do(t, ShardSnapshotPath(dir, "g", 1))

			_, err := LoadShardedFS(store.OSFS, dir, "g", scheme)
			if err == nil {
				t.Fatal("LoadSharded must fail on a damaged shard snapshot")
			}
			if !strings.Contains(err.Error(), "shard") {
				t.Fatalf("unhelpful error: %v", err)
			}

			// The registry treats an unloadable layout as absent and
			// rebuilds from data.
			reg := store.NewRegistry(dir)
			ss, err := RegisterSharded(reg, "g", scheme, RangePartitioner{}, 3, g.Encode())
			if err != nil {
				t.Fatalf("rebuild over damaged snapshots: %v", err)
			}
			if ss.WasLoaded() {
				t.Fatal("registry served a damaged snapshot as loaded")
			}
			got, err := ss.Answer(schemes.NodePairQuery(0, g.N()-1))
			if err != nil {
				t.Fatal(err)
			}
			if want := g.Reachable(0, g.N()-1); got != want {
				t.Fatalf("rebuilt store answers %v, want %v", got, want)
			}
		})
	}

	// A corrupt manifest is equally fatal for LoadSharded.
	dir, _, scheme := shardedFixture(t)
	mb, err := os.ReadFile(ManifestPath(dir, "g"))
	if err != nil {
		t.Fatal(err)
	}
	mb[len(mb)-1] ^= 0xff
	if err := os.WriteFile(ManifestPath(dir, "g"), mb, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardedFS(store.OSFS, dir, "g", scheme); err == nil {
		t.Fatal("LoadSharded must fail on a corrupt manifest")
	}
}
