package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
	"pitract/internal/store/faultfs"
)

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		SchemeName:  "reachability/closure-matrix",
		DataSum:     store.SumData([]byte("raw")),
		Partitioner: "range",
		Assignment:  []byte{rangeAssignmentTag, 2, 2, 4},
		Summary:     []byte("overlay"),
		Version:     7,
		// Members of any length, the empty one included.
		Shards: [][]byte{[]byte("member zero"), {}, bytes.Repeat([]byte{0xa5}, 300)},
	}
	got, err := DecodeManifest(EncodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemeName != m.SchemeName || got.Partitioner != m.Partitioner ||
		got.DataSum != m.DataSum || !bytes.Equal(got.Assignment, m.Assignment) ||
		!bytes.Equal(got.Summary, m.Summary) || got.Version != m.Version || len(got.Shards) != 3 {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	for i := range m.Shards {
		if !bytes.Equal(got.Shards[i], m.Shards[i]) {
			t.Fatalf("member %d mismatch", i)
		}
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	m := &Manifest{SchemeName: "s", Partitioner: "hash", Assignment: []byte{hashAssignmentTag, 2}}
	enc := EncodeManifest(m)
	// A member count the bytes do not hold, under a CRC that vouches for it:
	// refused at the first missing field, with nothing sized by the claim.
	hostile := append([]byte{}, enc[:len(enc)-1]...) // drop the count (0)
	hostile = binary.AppendUvarint(hostile, 1<<40)
	binary.BigEndian.PutUint32(hostile[len(manifestMagic):], crc32.ChecksumIEEE(hostile[len(manifestMagic)+4:]))
	cases := map[string][]byte{
		"empty":          {},
		"short":          enc[:5],
		"bad-magic":      append([]byte("XITRACTM\x03"), enc[9:]...),
		"bad-version":    append([]byte("PITRACTM\x04"), enc[9:]...),
		"sha-per-file":   append([]byte("PITRACTM\x02"), enc[9:]...),
		"old-version":    append([]byte("PITRACTM\x01"), enc[9:]...),
		"hostile-count":  hostile,
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
// no manifest, and a retryable id. The temp file of a checkpoint that died
// before its rename must not resurrect as a dataset.
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

	// Simulate a crash inside the checkpoint's atomic write, before the
	// rename: a whole, valid manifest under the temp name must be invisible
	// (no manifest = no dataset) and the next registration rebuilds beside it.
	built, err := Build("g", schemes.ReachabilityScheme(), ForScheme("reachability/closure-matrix"), RangePartitioner{}, 3, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, ".pitract-atomic-123456")
	if err := os.WriteFile(stray, built.checkpointBytes(built.state.Load()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardedFS(store.OSFS, dir, "g", schemes.ReachabilityScheme()); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("LoadSharded without a manifest = %v, want not-exist", err)
	}
	ss, err := RegisterSharded(reg, "g", schemes.ReachabilityScheme(), RangePartitioner{}, 3, g.Encode())
	if err != nil {
		t.Fatalf("retry after failures: %v", err)
	}
	if ss.WasLoaded() || reg.QuarantineCount() != 0 {
		t.Fatalf("retry: loaded=%v quarantines=%d, want a rebuild that trusts no leftover temp file", ss.WasLoaded(), reg.QuarantineCount())
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

// TestShardedCorruptSnapshotFailsOpen: a manifest that is truncated or
// bit-flipped must fail LoadSharded
// with a typed corruption error, and a persistent registry must quarantine it
// and rebuild instead of serving the damaged artifact. A manifest that is
// missing is absent, not corrupt: rebuilt, with nothing to quarantine.
func TestShardedCorruptSnapshotFailsOpen(t *testing.T) {
	rewrite := func(edit func(b []byte) []byte) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, edit(b), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tamper := range []struct {
		name    string
		corrupt bool
		do      func(t *testing.T, path string)
	}{
		{"missing", false, func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip", true, rewrite(func(b []byte) []byte {
			b[len(b)/2] ^= 0x40
			return b
		})},
		{"bit-flip-in-the-last-byte", true, rewrite(func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		})},
		{"truncated", true, rewrite(func(b []byte) []byte { return b[:len(b)/2] })},
	} {
		t.Run(tamper.name, func(t *testing.T) {
			dir, g, scheme := shardedFixture(t)
			tamper.do(t, ManifestPath(dir, "g"))

			_, err := LoadShardedFS(store.OSFS, dir, "g", scheme)
			var ce *store.CorruptArtifactError
			if tamper.corrupt {
				if !errors.As(err, &ce) || ce.Path != ManifestPath(dir, "g") {
					t.Fatalf("LoadSharded on a damaged manifest = %v, want a CorruptArtifactError at its path", err)
				}
			} else if !errors.Is(err, fs.ErrNotExist) || errors.As(err, &ce) {
				t.Fatalf("LoadSharded without a manifest = %v, want a plain not-exist error", err)
			}
			if !strings.Contains(err.Error(), "shard") {
				t.Fatalf("unhelpful error: %v", err)
			}

			// The registry rebuilds from data, keeping aside what was damaged.
			reg := store.NewRegistry(dir)
			ss, err := RegisterSharded(reg, "g", scheme, RangePartitioner{}, 3, g.Encode())
			if err != nil {
				t.Fatalf("rebuild over a damaged manifest: %v", err)
			}
			if ss.WasLoaded() {
				t.Fatal("registry served a damaged manifest as loaded")
			}
			wantQ := int64(0)
			if tamper.corrupt {
				wantQ = 1
			}
			_, statErr := os.Stat(store.QuarantinePath(ManifestPath(dir, "g")))
			if reg.QuarantineCount() != wantQ || (statErr == nil) != tamper.corrupt {
				t.Fatalf("%d quarantines (quarantine file: %v), want %d", reg.QuarantineCount(), statErr, wantQ)
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
}

// checkpointFixture builds the benchmark's community graph as an n-shard
// reachability dataset, in memory.
func checkpointFixture(tb testing.TB, n int) *ShardedStore {
	tb.Helper()
	scheme := schemes.ReachabilityScheme()
	ss, err := Build("g", scheme, ForScheme(scheme.Name()), RangePartitioner{}, n, graph.CommunityGraph(8, 256, 512, 5).Encode())
	if err != nil {
		tb.Fatal(err)
	}
	return ss
}

// TestShardedCheckpointIsOneAtomicWrite: whatever the shard count, a
// checkpoint touches the medium exactly as one store.WriteFileAtomicFS of the
// manifest does — seven operations, one rename — and leaves one file.
func TestShardedCheckpointIsOneAtomicWrite(t *testing.T) {
	const dir = "/data"
	// Temp names carry the medium's op counter; the operations are what is
	// compared.
	temp := regexp.MustCompile(`\.pitract-atomic-\d+`)
	normal := func(trace []string) []string {
		for i, e := range trace {
			trace[i] = temp.ReplaceAllString(e, ".pitract-atomic-*")
		}
		return trace
	}
	ref := faultfs.New()
	if err := store.WriteFileAtomicFS(ref, ManifestPath(dir, "g"), []byte("any bytes")); err != nil {
		t.Fatal(err)
	}
	want := normal(ref.Trace())
	if len(want) != 7 {
		t.Fatalf("one atomic write is %d operations on the medium, want 7: %q", len(want), want)
	}
	for _, n := range []int{2, 4, 16} {
		ss := checkpointFixture(t, n)
		f := faultfs.New()
		if err := ss.Checkpoint(f, dir); err != nil {
			t.Fatal(err)
		}
		if got := normal(f.Trace()); !slices.Equal(got, want) {
			t.Errorf("n=%d: a checkpoint is %d operations, want the %d of one atomic write:\n got %q\nwant %q", n, len(got), len(want), got, want)
		}
		names, err := f.ReadDirNames(dir)
		if err != nil || !slices.Equal(names, []string{"g.pitract-shards"}) {
			t.Errorf("n=%d: after a checkpoint the directory holds %q (%v), want the manifest alone", n, names, err)
		}
		loaded, err := LoadShardedFS(f, dir, "g", ss.Scheme)
		if err != nil || loaded.ShardCount() != n {
			t.Errorf("n=%d: the one file does not load as %d shards: %v", n, n, err)
		}
	}
}

// TestShardedSnapshotBytesIsTheCheckpointFile: the figure /v1/stats reports as
// snapshot_bytes is the size of the file a checkpoint of the committed value
// writes — header, assignment, summary and members — whether a scrape or the
// checkpoint encoded it first, and that file (plus the delta log between
// checkpoints) is all the data directory holds.
func TestShardedSnapshotBytesIsTheCheckpointFile(t *testing.T) {
	const dir, id = "/data", "d"
	inc := schemes.IncrementalPointSelection()
	f := faultfs.New()
	reg := store.NewRegistryMedium(&store.Medium{Dir: dir, FS: f, CheckpointEvery: 2})
	ss, err := RegisterSharded(reg, id, inc.Scheme, HashPartitioner{}, 4, schemes.RelationFromKeys([]int64{2, 4, 6, 8, 10, 12, 14, 16}))
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, files ...string) {
		t.Helper()
		names, err := f.ReadDirNames(dir)
		if err != nil || !slices.Equal(names, files) {
			t.Fatalf("%s: the directory holds %q (%v), want %q", step, names, err, files)
		}
	}
	onDisk := func(step string) {
		t.Helper()
		size, err := f.Size(ManifestPath(dir, id))
		if err != nil || int64(ss.SnapshotBytes()) != size {
			t.Fatalf("%s: SnapshotBytes %d, the manifest on the medium is %d bytes (%v)", step, ss.SnapshotBytes(), size, err)
		}
	}
	check("registered", "d.pitract-shards")
	onDisk("registered")
	// Logged, not checkpointed: the figure is the new value's, encoded by the
	// scrape, and the checkpoint that follows writes exactly that many bytes.
	if _, err := reg.ApplyDelta(id, [][]byte{schemes.KeysDelta([]int64{101, 103, 105})}); err != nil {
		t.Fatal(err)
	}
	check("after a logged PATCH", "d.pitract-log", "d.pitract-shards")
	scraped := ss.SnapshotBytes()
	if err := ss.Checkpoint(f, dir); err != nil {
		t.Fatal(err)
	}
	if onDisk("checkpointed by hand"); ss.SnapshotBytes() != scraped {
		t.Fatalf("a scrape said %d bytes, the checkpoint of the same value wrote %d", scraped, ss.SnapshotBytes())
	}
	if _, err := reg.ApplyDelta(id, [][]byte{schemes.KeysDelta([]int64{107})}); err != nil {
		t.Fatal(err)
	}
	check("after the PATCH that checkpoints", "d.pitract-shards")
	onDisk("after the PATCH that checkpoints")
}

// BenchmarkShardedCheckpoint is one checkpoint of the benchmark's community
// graph on the real disk, by shard count: the write cost a PATCH pays at the
// default cadence.
func BenchmarkShardedCheckpoint(b *testing.B) {
	for _, n := range []int{2, 4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ss, dir := checkpointFixture(b, n), b.TempDir()
			b.SetBytes(int64(ss.SnapshotBytes()))
			for b.Loop() {
				if err := ss.Checkpoint(store.OSFS, dir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
