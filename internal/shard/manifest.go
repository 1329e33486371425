package shard

// Sharded persistence: one dataset becomes n snapshot files (one per
// shard, in the plain internal/store format) plus a manifest binding them
// together. The manifest is the commit record — it names the scheme, the
// raw-data digest, the partitioner and its frozen assignment, the
// cross-shard summary, and the SHA-256 of every shard snapshot file — and
// it is written last, atomically. A crash mid-registration therefore
// leaves at most orphaned shard files and no manifest: the next
// registration finds nothing loadable and rebuilds from the data, and the
// registry catalog never exposes a partial entry.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"pitract/internal/core"
	"pitract/internal/store"
)

// manifestMagic opens every shard manifest; the trailing byte is the
// format version. Version 2 added the maintenance version counter and
// generation-suffixed shard snapshot files (incremental serving), and the
// reachability summary gained its cross-edge list in the same change —
// version-1 manifests are therefore rejected cleanly (the next
// registration rebuilds from the data) instead of half-loading.
var manifestMagic = []byte("PITRACTM\x02")

// Manifest describes one persisted sharded dataset.
type Manifest struct {
	// SchemeName names the scheme that preprocessed every shard.
	SchemeName string
	// DataSum digests the raw, unsplit dataset as originally registered;
	// deltas advance Version, not the digest.
	DataSum store.DataChecksum
	// Partitioner is the partitioner name ("hash", "range").
	Partitioner string
	// Assignment is the frozen key→shard mapping (DecodeAssignment form).
	Assignment []byte
	// Summary is the cross-shard state (scheme-specific; may be empty).
	Summary []byte
	// Version is the dataset's maintenance version: how many deltas have
	// been applied since registration. It doubles as the shard snapshot
	// file generation — the manifest only ever names files of its own
	// generation, so a crash mid-maintenance can never mix old and new
	// shard artifacts.
	Version uint64
	// ShardSums holds the SHA-256 of each shard snapshot file, indexed by
	// shard; its length is the shard count.
	ShardSums [][sha256.Size]byte
}

func appendBytesField(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// EncodeManifest renders the manifest in its on-disk format:
//
//	magic ‖ version ‖ crc32(payload) ‖ payload
//	payload = scheme ‖ dataSum ‖ partitioner ‖ assignment ‖ summary ‖ maintVersion ‖ n ‖ n×sha256
//
// with every variable-length field uvarint-length-prefixed.
func EncodeManifest(m *Manifest) []byte {
	var payload []byte
	payload = appendBytesField(payload, []byte(m.SchemeName))
	payload = append(payload, m.DataSum[:]...)
	payload = appendBytesField(payload, []byte(m.Partitioner))
	payload = appendBytesField(payload, m.Assignment)
	payload = appendBytesField(payload, m.Summary)
	payload = binary.AppendUvarint(payload, m.Version)
	payload = binary.AppendUvarint(payload, uint64(len(m.ShardSums)))
	for _, s := range m.ShardSums {
		payload = append(payload, s[:]...)
	}
	out := make([]byte, 0, len(manifestMagic)+4+len(payload))
	out = append(out, manifestMagic...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// DecodeManifest parses the on-disk format. Any deviation — wrong magic or
// version, checksum mismatch, truncation, hostile counts — is an error,
// never a panic.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < len(manifestMagic)+4 {
		return nil, fmt.Errorf("shard: manifest too short (%d bytes)", len(b))
	}
	for i, m := range manifestMagic {
		if b[i] != m {
			return nil, fmt.Errorf("shard: bad manifest magic/version (offset %d)", i)
		}
	}
	want := binary.BigEndian.Uint32(b[len(manifestMagic):])
	payload := b[len(manifestMagic)+4:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("shard: manifest checksum mismatch (want %08x, got %08x)", want, got)
	}
	off := 0
	field := func() ([]byte, error) {
		n, k := binary.Uvarint(payload[off:])
		if k <= 0 || uint64(len(payload)-off-k) < n {
			return nil, fmt.Errorf("shard: corrupt manifest field at offset %d", off)
		}
		f := payload[off+k : off+k+int(n)]
		off += k + int(n)
		return f, nil
	}
	m := &Manifest{}
	scheme, err := field()
	if err != nil {
		return nil, err
	}
	m.SchemeName = string(scheme)
	if len(payload)-off < sha256.Size {
		return nil, fmt.Errorf("shard: manifest truncated before data digest")
	}
	copy(m.DataSum[:], payload[off:])
	off += sha256.Size
	part, err := field()
	if err != nil {
		return nil, err
	}
	m.Partitioner = string(part)
	if m.Assignment, err = field(); err != nil {
		return nil, err
	}
	m.Assignment = append([]byte(nil), m.Assignment...)
	if m.Summary, err = field(); err != nil {
		return nil, err
	}
	m.Summary = append([]byte(nil), m.Summary...)
	ver, k := binary.Uvarint(payload[off:])
	if k <= 0 {
		return nil, fmt.Errorf("shard: corrupt manifest maintenance version")
	}
	m.Version = ver
	off += k
	cnt, k := binary.Uvarint(payload[off:])
	if k <= 0 {
		return nil, fmt.Errorf("shard: corrupt manifest shard count")
	}
	off += k
	if cnt > uint64(len(payload)-off)/sha256.Size {
		return nil, fmt.Errorf("shard: manifest claims %d shards in %d bytes", cnt, len(payload)-off)
	}
	m.ShardSums = make([][sha256.Size]byte, cnt)
	for i := range m.ShardSums {
		copy(m.ShardSums[i][:], payload[off:])
		off += sha256.Size
	}
	if off != len(payload) {
		return nil, fmt.Errorf("shard: %d trailing manifest bytes", len(payload)-off)
	}
	return m, nil
}

// ManifestPath maps a dataset ID to its manifest file under dir (IDs are
// path-escaped exactly like plain snapshot names).
func ManifestPath(dir, id string) string {
	return filepath.Join(dir, url.PathEscape(id)+".pitract-shards")
}

// ShardSnapshotPath maps (dataset ID, shard index) to the shard's snapshot
// file under dir at generation 0 (as registered). The extension is
// deliberately NOT the plain registry's ".pitract": url.PathEscape keeps
// '.' intact, so a plain dataset id like "g.shard000" would otherwise map
// to the same file as sharded dataset "g"'s shard 0 and the two would
// silently clobber each other's artifacts.
func ShardSnapshotPath(dir, id string, i int) string {
	return shardSnapshotPathGen(dir, id, i, 0)
}

// shardSnapshotPathGen maps (dataset ID, shard index, generation) to a
// shard snapshot file. Maintenance writes each new dataset version as a
// fresh generation of files and commits it by atomically renaming the
// manifest that names them — the manifest on disk therefore always
// references a complete, self-consistent generation. Superseded or
// orphaned generations (including those left by a crash between the
// manifest rename and the cleanup) are reclaimed by sweepShardGenerations
// on the next successful checkpoint.
func shardSnapshotPathGen(dir, id string, i int, gen uint64) string {
	if gen == 0 {
		return filepath.Join(dir, fmt.Sprintf("%s.shard%03d.pitract-shard", url.PathEscape(id), i))
	}
	return filepath.Join(dir, fmt.Sprintf("%s.shard%03d.v%d.pitract-shard", url.PathEscape(id), i, gen))
}

// sweepShardGenerations best-effort deletes every shard snapshot file of
// the dataset that does not belong to generation keep — not just the
// immediately preceding one, so generations orphaned by an earlier crash
// (committed manifest, interrupted cleanup) cannot accumulate.
func sweepShardGenerations(fsys store.FS, dir, id string, keep uint64) {
	entries, err := fsys.ReadDirNames(dir)
	if err != nil {
		return
	}
	prefix := url.PathEscape(id) + ".shard"
	const ext = ".pitract-shard"
	for _, name := range entries {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
			continue
		}
		// The generation part: "NNN" (gen 0) or "NNN.vG" for gen G.
		mid := name[len(prefix) : len(name)-len(ext)]
		gen := uint64(0)
		if i := strings.Index(mid, ".v"); i >= 0 {
			g, err := strconv.ParseUint(mid[i+2:], 10, 64)
			if err != nil {
				continue // not ours
			}
			gen = g
			mid = mid[:i]
		}
		// %03d widens past 3 digits for shard indexes >= 1000 (the library
		// has no shard cap, only the HTTP server does), so accept any
		// all-digit index of at least the padded width.
		if len(mid) < 3 || strings.Trim(mid, "0123456789") != "" {
			continue // not a shard index of ours
		}
		if gen != keep {
			fsys.Remove(filepath.Join(dir, name))
		}
	}
}

// writeShardGeneration persists one complete generation: every shard
// snapshot encoding first (atomic each, at the manifest's generation), the
// manifest last (atomic) — the commit point, so the manifest only ever
// names files that are fully on disk. On failure the written shard files
// are best-effort removed; without a manifest naming them they are dead
// weight, not a visible dataset.
func writeShardGeneration(fsys store.FS, dir, id string, m *Manifest, encs [][]byte) error {
	m.ShardSums = make([][sha256.Size]byte, len(encs))
	written := make([]string, 0, len(encs))
	cleanup := func() {
		for _, p := range written {
			fsys.Remove(p)
		}
	}
	for i, enc := range encs {
		m.ShardSums[i] = sha256.Sum256(enc)
		path := shardSnapshotPathGen(dir, id, i, m.Version)
		if err := store.WriteFileAtomicFS(fsys, path, enc); err != nil {
			cleanup()
			return fmt.Errorf("shard: save %q: %w", id, err)
		}
		written = append(written, path)
	}
	if err := store.WriteFileAtomicFS(fsys, ManifestPath(dir, id), EncodeManifest(m)); err != nil {
		cleanup()
		return fmt.Errorf("shard: save %q: %w", id, err)
	}
	return nil
}

// Checkpoint implements store.DeltaDataset: the committed value written as
// generation Version() (see writeShardGeneration for the commit
// discipline), then every other generation swept. The sweep runs only after
// the manifest rename succeeded: until then the manifest on disk still
// names the previous generation's files, which must survive for
// replay-over-manifest recovery.
func (ss *ShardedStore) Checkpoint(fsys store.FS, dir string) error {
	version, summary, shards := ss.Committed()
	m := &Manifest{
		SchemeName:  ss.Scheme.Name(),
		DataSum:     ss.DataSum,
		Partitioner: ss.Partitioner,
		Assignment:  ss.Asn.Encode(),
		Summary:     summary,
		Version:     version,
	}
	encs := make([][]byte, len(shards))
	for i, snap := range shards {
		encs[i] = store.EncodeSnapshot(snap)
	}
	if err := writeShardGeneration(fsys, dir, ss.ID, m, encs); err != nil {
		return err
	}
	sweepShardGenerations(fsys, dir, ss.ID, m.Version)
	return nil
}

// LoadShardedFS reopens a persisted sharded dataset: read and validate the
// manifest, verify every shard snapshot file against its manifest SHA-256,
// decode each, and reassemble the sharded store — never a panic and never a
// store quietly missing shards. Failures are typed for
// store.Registry.Recover: an unreadable manifest is the I/O error (missing:
// nothing persisted); a manifest naming another scheme is store.ErrStale;
// and everything the manifest itself vouches for — its own CRC and
// decoding, its assignment, every shard file it names being present,
// matching its SHA-256 and decoding, a summary the scheme can prepare its
// view from — is a *store.CorruptArtifactError at
// the manifest's path, the one file whose quarantine retires the whole
// generation.
func LoadShardedFS(fsys store.FS, dir, id string, scheme *core.Scheme) (*ShardedStore, error) {
	maniPath := ManifestPath(dir, id)
	mb, err := fsys.ReadFile(maniPath)
	if err != nil {
		return nil, fmt.Errorf("shard: open %q: %w", id, err)
	}
	corrupt := func(err error) error {
		return &store.CorruptArtifactError{Path: maniPath, Err: fmt.Errorf("shard: open %q: %w", id, err)}
	}
	m, err := DecodeManifest(mb)
	if err != nil {
		return nil, corrupt(err)
	}
	sh := ForScheme(m.SchemeName)
	if m.SchemeName != scheme.Name() || sh == nil {
		return nil, fmt.Errorf("shard: open %q: manifest scheme %s, want %s in sharded form: %w", id, m.SchemeName, scheme.Name(), store.ErrStale)
	}
	asn, err := DecodeAssignment(m.Assignment)
	if err != nil {
		return nil, corrupt(err)
	}
	if asn.Shards() != len(m.ShardSums) {
		return nil, corrupt(fmt.Errorf("assignment has %d shards, manifest %d", asn.Shards(), len(m.ShardSums)))
	}
	ss := &ShardedStore{
		ID:          id,
		Scheme:      scheme,
		Sharding:    sh,
		Asn:         asn,
		DataSum:     m.DataSum,
		Loaded:      true,
		Partitioner: m.Partitioner,
	}
	shards := make([]member, len(m.ShardSums))
	for i, want := range m.ShardSums {
		// The manifest names its own generation of shard files, so a load
		// can never mix pre- and post-maintenance artifacts.
		path := shardSnapshotPathGen(dir, id, i, m.Version)
		enc, err := fsys.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			return nil, corrupt(fmt.Errorf("shard %d: %w", i, err))
		}
		if err != nil {
			return nil, fmt.Errorf("shard: open %q: shard %d: %w", id, i, err)
		}
		if got := sha256.Sum256(enc); got != want {
			return nil, corrupt(fmt.Errorf("shard %d snapshot %s fails its manifest SHA-256", i, path))
		}
		snap, err := store.DecodeSnapshot(enc)
		if err != nil {
			return nil, corrupt(fmt.Errorf("shard %d: %w", i, err))
		}
		if snap.SchemeName != scheme.Name() {
			return nil, corrupt(fmt.Errorf("shard %d preprocessed by %s, want %s", i, snap.SchemeName, scheme.Name()))
		}
		shards[i] = member{prep: snap.Prep, sum: snap.DataSum}
	}
	// Decode the per-shard answerers concurrently, as Build does — a serial
	// warm-up would add n decode latencies to the restart path.
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shards[i] = newMember(scheme, shards[i].prep, shards[i].sum)
		}(i)
	}
	wg.Wait()
	// A summary the manifest vouches for and this version cannot prepare a
	// view from — an overlay an earlier version laid out differently — would
	// refuse every answer and be loaded again by every re-registration.
	if err := ss.publish(m.Version, m.Summary, shards); err != nil {
		return nil, corrupt(fmt.Errorf("summary: %w", err))
	}
	return ss, nil
}

// RegisterSharded registers data under id as n partitioned stores behind
// one registry catalog entry — the sharded sibling of Registry.Register,
// with the same exactly-once and persistence contract: concurrent
// registrations share one build, a persistent registry reloads fresh
// snapshots (same scheme, same data digest, same partitioner and shard
// count) instead of re-preprocessing, and re-registering with anything
// incompatible is an error rather than a silent swap.
func RegisterSharded(r *store.Registry, id string, scheme *core.Scheme, p Partitioner, n int, data []byte) (*ShardedStore, error) {
	return RegisterShardedContext(context.Background(), r, id, scheme, p, n, data)
}

// RegisterShardedContext is RegisterSharded under a request budget: when
// ctx expires before the per-shard preprocessing completes the call
// returns a *store.BudgetError and the build is abandoned (it finishes but
// is not memoized — no catalog entry remains), exactly the
// Registry.RegisterContext contract. The HTTP layer threads each sharded
// registration's deadline through here.
func RegisterShardedContext(ctx context.Context, r *store.Registry, id string, scheme *core.Scheme, p Partitioner, n int, data []byte) (*ShardedStore, error) {
	if scheme == nil {
		return nil, fmt.Errorf("shard: register %q: nil scheme", id)
	}
	if p == nil {
		p = HashPartitioner{}
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: register %q: shard count %d < 1", id, n)
	}
	sh := ForScheme(scheme.Name())
	if sh == nil {
		return nil, fmt.Errorf("shard: register %q: scheme %s has no sharded form (shardable: %v)",
			id, scheme.Name(), ShardableSchemes())
	}
	sum := store.SumData(data)
	ds, err := r.RegisterDatasetContext(ctx, id,
		func(d store.Dataset) error {
			if d.SchemeName() != scheme.Name() {
				return fmt.Errorf("shard: dataset %q already registered with scheme %s (got %s)",
					id, d.SchemeName(), scheme.Name())
			}
			if d.DataDigest() != sum {
				return fmt.Errorf("shard: dataset %q already registered with different data (re-register under a new id)", id)
			}
			existing, ok := d.(*ShardedStore)
			if !ok {
				return fmt.Errorf("shard: dataset %q is registered unsharded; re-register through the plain path or under a new id", id)
			}
			if existing.ShardCount() != n {
				return fmt.Errorf("shard: dataset %q already registered with %d shards (got %d)",
					id, existing.ShardCount(), n)
			}
			if existing.Partitioner != p.Name() {
				return fmt.Errorf("shard: dataset %q already registered with the %s partitioner (got %s)",
					id, existing.Partitioner, p.Name())
			}
			return nil
		},
		func() (store.Dataset, error) {
			return r.Recover(id,
				func(fsys store.FS, dir string) (store.DeltaDataset, error) {
					ss, err := LoadShardedFS(fsys, dir, id, scheme)
					if err != nil {
						return nil, err
					}
					if ss.DataSum != sum || ss.ShardCount() != n || ss.Partitioner != p.Name() {
						return nil, store.ErrStale
					}
					return ss, nil
				},
				func() (store.DeltaDataset, error) {
					ss, err := Build(id, scheme, sh, p, n, data)
					if err != nil {
						return nil, err
					}
					return ss, nil
				})
		})
	if err != nil {
		return nil, err
	}
	ss, ok := ds.(*ShardedStore)
	if !ok {
		return nil, fmt.Errorf("shard: dataset %q is not a sharded store", id)
	}
	return ss, nil
}
