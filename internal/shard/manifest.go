package shard

// Sharded persistence: one dataset is one file. The manifest names the
// scheme, the raw-data digest, the partitioner and its frozen assignment,
// the cross-shard summary and the maintenance version, and carries every
// member's snapshot (the plain internal/store encoding, CRC and all) inside
// its own CRC-framed payload. One atomic rename of that file is the
// checkpoint: a crash before it leaves the previous file (or, mid-
// registration, none — the next registration rebuilds from the data), a
// crash after it leaves the new one, and no state in between exists for a
// restart to find.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/url"
	"path/filepath"
	"sync"

	"pitract/internal/core"
	"pitract/internal/store"
)

// manifestMagic opens every shard manifest; the trailing byte is the
// format version. Version 3 carries the members' snapshots in the manifest
// itself, where version 2 held a SHA-256 per separately written shard file.
// An older manifest is rejected at the magic — quarantined and the dataset
// rebuilt by the next registration — never half-loaded; the
// *.pitract-shard files it named are read and removed by nothing.
var manifestMagic = []byte("PITRACTM\x03")

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
	// been applied since registration.
	Version uint64
	// Shards holds each member's snapshot (store.EncodeSnapshot form),
	// indexed by shard; its length is the shard count.
	Shards [][]byte
}

func appendBytesField(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// EncodeManifest renders the manifest in its on-disk format:
//
//	magic ‖ version ‖ crc32(payload) ‖ payload
//	payload = scheme ‖ dataSum ‖ partitioner ‖ assignment ‖ summary ‖ maintVersion ‖ n ‖ n×snapshot
//
// with every variable-length field uvarint-length-prefixed.
func EncodeManifest(m *Manifest) []byte {
	// Sized once (six varints, then one per member): the members are all of Π.
	size := len(manifestMagic) + 4 + len(m.SchemeName) + len(m.DataSum) + len(m.Partitioner) +
		len(m.Assignment) + len(m.Summary) + 6*binary.MaxVarintLen64
	for _, s := range m.Shards {
		size += binary.MaxVarintLen64 + len(s)
	}
	out := make([]byte, 0, size)
	out = append(out, manifestMagic...)
	out = append(out, 0, 0, 0, 0) // the CRC, once the payload is behind it
	out = appendBytesField(out, []byte(m.SchemeName))
	out = append(out, m.DataSum[:]...)
	out = appendBytesField(out, []byte(m.Partitioner))
	out = appendBytesField(out, m.Assignment)
	out = appendBytesField(out, m.Summary)
	out = binary.AppendUvarint(out, m.Version)
	out = binary.AppendUvarint(out, uint64(len(m.Shards)))
	for _, s := range m.Shards {
		out = appendBytesField(out, s)
	}
	payload := out[len(manifestMagic)+4:]
	binary.BigEndian.PutUint32(out[len(manifestMagic):], crc32.ChecksumIEEE(payload))
	return out
}

// DecodeManifest parses the on-disk format. Any deviation — wrong magic or
// version, checksum mismatch, truncation, hostile counts — is an error,
// never a panic, and nothing is allocated by a size the bytes only claim:
// members are appended as their fields parse, so a count beyond the bytes
// fails at the first missing field. The Shards alias b (store.DecodeSnapshot
// copies what it keeps); the other fields are copies.
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
	for i := uint64(0); i < cnt; i++ {
		s, err := field()
		if err != nil {
			return nil, fmt.Errorf("shard: manifest claims %d shards: shard %d: %w", cnt, i, err)
		}
		m.Shards = append(m.Shards, s)
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

// checkpointBytes encodes the committed value c as the one file a checkpoint
// writes, and memoises its size for SnapshotBytes.
func (ss *ShardedStore) checkpointBytes(c *committed) []byte {
	m := &Manifest{
		SchemeName:  ss.Scheme.Name(),
		DataSum:     ss.DataSum,
		Partitioner: ss.Partitioner,
		Assignment:  ss.Asn.Encode(),
		Summary:     c.summary,
		Version:     c.version,
		Shards:      make([][]byte, len(c.shards)),
	}
	for i, snap := range c.snapshots(ss.Scheme) {
		m.Shards[i] = store.EncodeSnapshot(snap)
	}
	enc := EncodeManifest(m)
	c.snapSize.Store(int64(len(enc)))
	return enc
}

// Checkpoint implements store.DeltaDataset: the committed value as one
// atomic write of the manifest. The rename is the commit — until it lands
// the file on disk is the previous checkpoint, whole, for replay-over-
// manifest recovery — and the medium is touched in no other way.
func (ss *ShardedStore) Checkpoint(fsys store.FS, dir string) error {
	if err := store.WriteFileAtomicFS(fsys, ManifestPath(dir, ss.ID), ss.checkpointBytes(ss.state.Load())); err != nil {
		return fmt.Errorf("shard: save %q: %w", ss.ID, err)
	}
	return nil
}

// LoadShardedFS reopens a persisted sharded dataset: read and validate the
// manifest, decode every member snapshot it carries, and reassemble the
// sharded store — never a panic and never a store quietly missing shards.
// Failures are typed for store.Registry.Recover: an unreadable manifest is
// the I/O error (missing: nothing persisted); a manifest naming another
// scheme is store.ErrStale; and everything else — the manifest's CRC and
// decoding, its assignment, every member decoding under its own CRC as a
// snapshot of this scheme, one member per assigned shard, a summary the
// scheme can prepare its view from — is a *store.CorruptArtifactError at the
// manifest's path, the one file there is to quarantine.
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
	if asn.Shards() != len(m.Shards) {
		return nil, corrupt(fmt.Errorf("assignment has %d shards, manifest %d", asn.Shards(), len(m.Shards)))
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
	shards := make([]member, len(m.Shards))
	for i, enc := range m.Shards {
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
