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
	"time"

	"pitract/internal/core"
	"pitract/internal/store"
)

// manifestMagic opens every shard manifest; the trailing byte is the
// format version. Version 5 stores the reachability summary as n ‖
// orientation ‖ cross-edge arc file ‖ overlay, where version 4 also held every
// vertex's local id, the cross edges as uvarint pairs and the portal list with
// each portal's shard. Version 4 stores the summary's overlay with its class
// ids packed to ⌈log₂ k⌉ bits, where version 3 gave each two bytes.
// Version 3 was the first to carry the members' snapshots in the manifest
// itself, where version 2 held a SHA-256 per separately written shard file.
// An older manifest is rejected at the magic — quarantined and the dataset
// rebuilt by the next registration — never half-loaded; the
// *.pitract-shard files a version 2 manifest named are read and removed by
// nothing.
var manifestMagic = []byte("PITRACTM\x05")

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

// Path implements store.Layout: a checkpoint writes the manifest.
func (ss *ShardedStore) Path(dir, id string) string { return ManifestPath(dir, id) }

// Encode implements store.Layout: the committed value c as the one file a
// checkpoint writes, every member's snapshot inside.
func (ss *ShardedStore) Encode(scheme *core.Scheme, sum store.DataChecksum, c *store.Committed) []byte {
	m := &Manifest{
		SchemeName:  scheme.Name(),
		DataSum:     sum,
		Partitioner: ss.Partitioner,
		Assignment:  ss.Asn.Encode(),
		Summary:     c.Summary(),
		Version:     c.Version(),
		Shards:      make([][]byte, len(c.Members())),
	}
	for i := range m.Shards {
		m.Shards[i] = store.EncodeSnapshot(c.Snapshot(scheme, i))
	}
	return EncodeManifest(m)
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
	ss, _, err := loadSharded(fsys, dir, id, scheme)
	return ss, err
}

// loadSharded is LoadShardedFS, and how long it took to read and decode the
// manifest and every member snapshot in it: the sharded snapshot_load, as
// LoadFS is the plain one. Open, which follows, is warm's.
func loadSharded(fsys store.FS, dir, id string, scheme *core.Scheme) (*ShardedStore, time.Duration, error) {
	maniPath := ManifestPath(dir, id)
	start := time.Now()
	mb, err := fsys.ReadFile(maniPath)
	if err != nil {
		return nil, 0, fmt.Errorf("shard: open %q: %w", id, err)
	}
	corrupt := func(err error) error {
		return &store.CorruptArtifactError{Path: maniPath, Err: fmt.Errorf("shard: open %q: %w", id, err)}
	}
	m, err := DecodeManifest(mb)
	if err != nil {
		return nil, 0, corrupt(err)
	}
	sh := ForScheme(m.SchemeName)
	if m.SchemeName != scheme.Name() || sh == nil {
		return nil, 0, fmt.Errorf("shard: open %q: manifest scheme %s, want %s in sharded form: %w", id, m.SchemeName, scheme.Name(), store.ErrStale)
	}
	asn, err := DecodeAssignment(m.Assignment)
	if err != nil {
		return nil, 0, corrupt(err)
	}
	if asn.Shards() != len(m.Shards) {
		return nil, 0, corrupt(fmt.Errorf("assignment has %d shards, manifest %d", asn.Shards(), len(m.Shards)))
	}
	members := make([]store.Member, len(m.Shards))
	for i, enc := range m.Shards {
		snap, err := store.DecodeSnapshot(enc)
		if err != nil {
			return nil, 0, corrupt(fmt.Errorf("shard %d: %w", i, err))
		}
		if snap.SchemeName != scheme.Name() {
			return nil, 0, corrupt(fmt.Errorf("shard %d preprocessed by %s, want %s", i, snap.SchemeName, scheme.Name()))
		}
		members[i] = store.Member{Prep: snap.Prep, Sum: snap.DataSum}
	}
	decoded := time.Since(start)
	// A member Π or a summary the manifest vouches for and this build will
	// not prepare — damage the CRCs cannot see, or a layout an earlier
	// version wrote — would refuse every answer and be loaded again by every
	// re-registration.
	ss := &ShardedStore{Sharding: sh, Asn: asn, Partitioner: m.Partitioner}
	if ss.Store, err = store.Open(id, scheme, m.DataSum, ss, m.Version, m.Summary, members); err != nil {
		return nil, 0, corrupt(err)
	}
	ss.Loaded = true
	return ss, decoded, nil
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
	want := func() store.Key { return store.Key{Scheme: scheme.Name(), Sum: sum, Layout: describe(n, p.Name())} }
	ds, err := r.RegisterAs(ctx, id, want,
		func(fsys store.FS, dir string) (store.DeltaDataset, error) {
			ss, decoded, err := loadSharded(fsys, dir, id, scheme)
			if err != nil {
				return nil, err
			}
			if want().Mismatch(ss.Key()) != nil {
				return nil, store.ErrStale
			}
			obsSnapshotLoad.Observe(decoded)
			return ss, nil
		},
		func() (store.DeltaDataset, error) {
			ss, err := Build(id, scheme, sh, p, n, data)
			if err != nil {
				return nil, err
			}
			return ss, nil
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
