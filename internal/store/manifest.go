// One dataset is one file: the manifest at DatasetPath. It names the scheme,
// the raw-data digest, the layout's own bytes, the cross-member summary and
// the maintenance version, and carries every member's snapshot (CRC and all)
// inside its own CRC-framed payload — one member, an empty layout field and
// no summary for a plain dataset. One atomic rename of that file is the
// checkpoint: a crash before it leaves the previous file (or, mid-
// registration, none — the next registration rebuilds from the data), a
// crash after it leaves the new one, and no state in between exists for a
// restart to find. Load is the one reader, whatever the layout.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/url"
	"path/filepath"
	"time"

	"pitract/internal/core"
)

// manifestMagic opens every dataset file; the trailing byte is the format
// version. Version 6 is the first a plain dataset is written in too — it had
// a bare snapshot at the same path — and folds the partitioner and
// assignment into the one layout field; version 5 was a sharded dataset's
// alone, under a name of its own that nothing reads or removes now. An older
// file at the path is rejected at the magic — quarantined and the dataset
// rebuilt by the next registration — never half-loaded.
var manifestMagic = []byte("PITRACTM\x06")

// DatasetPath maps a dataset ID to its file under dir. IDs are arbitrary
// strings, so the filename is the ID path-escaped (keeps readable IDs
// readable, makes hostile ones safe). Store.Checkpoint writes exactly the
// file Load reads.
func DatasetPath(dir, id string) string {
	return filepath.Join(dir, url.PathEscape(id)+".pitract")
}

// Manifest is one dataset file, decoded.
type Manifest struct {
	// SchemeName names the scheme that preprocessed every member.
	SchemeName string
	// DataSum digests the raw, unsplit dataset as originally registered;
	// deltas advance Version, not the digest.
	DataSum DataChecksum
	// Layout is the layout's own bytes (Layout.Encode), opaque here: none
	// for Plain, the partitioner and its frozen assignment for a partition.
	Layout []byte
	// Summary is the cross-member state the layout persists (may be empty).
	Summary []byte
	// Version is the dataset's maintenance version: how many deltas have
	// been applied since registration.
	Version uint64
	// Members holds each member's snapshot (EncodeSnapshot form), in member
	// order.
	Members [][]byte
}

// EncodeManifest renders the manifest in its on-disk format:
//
//	magic ‖ version ‖ crc32(payload) ‖ payload
//	payload = scheme ‖ dataSum ‖ layout ‖ summary ‖ maintVersion ‖ n ‖ n×snapshot
//
// with every variable-length field uvarint-length-prefixed.
func EncodeManifest(m *Manifest) []byte {
	size := 0
	for _, s := range m.Members {
		size += binary.MaxVarintLen64 + len(s)
	}
	return encodeManifest(m, len(m.Members), size, func(dst []byte, i int) []byte { return appendField(dst, m.Members[i]) })
}

// encodeManifest renders m's fields around n members that member appends,
// length prefix and all, into the one buffer — membersSize bounds their
// bytes — so a member is copied straight into the file.
func encodeManifest(m *Manifest, n, membersSize int, member func(dst []byte, i int) []byte) []byte {
	out := make([]byte, 0, len(manifestMagic)+4+len(m.SchemeName)+len(m.DataSum)+len(m.Layout)+len(m.Summary)+
		5*binary.MaxVarintLen64+membersSize)
	out = append(out, manifestMagic...)
	out = append(out, 0, 0, 0, 0) // the CRC, once the payload is behind it
	out = appendField(out, []byte(m.SchemeName))
	out = append(out, m.DataSum[:]...)
	out = appendField(out, m.Layout)
	out = appendField(out, m.Summary)
	out = binary.AppendUvarint(out, m.Version)
	out = binary.AppendUvarint(out, uint64(n))
	for i := range n {
		out = member(out, i)
	}
	binary.BigEndian.PutUint32(out[len(manifestMagic):], crc32.ChecksumIEEE(out[len(manifestMagic)+4:]))
	return out
}

// DecodeManifest parses the on-disk format. Any deviation — wrong magic or
// version, checksum mismatch, truncation, hostile counts — is an error,
// never a panic, and nothing is allocated by a size the bytes only claim:
// members are appended as their fields parse, so a count beyond the bytes
// fails at the first missing field. Every field but the scheme name aliases
// b (DecodeSnapshot copies what it keeps).
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < len(manifestMagic)+4 {
		return nil, fmt.Errorf("store: manifest too short (%d bytes)", len(b))
	}
	for i, m := range manifestMagic {
		if b[i] != m {
			return nil, fmt.Errorf("store: bad manifest magic/version (offset %d)", i)
		}
	}
	want := binary.BigEndian.Uint32(b[len(manifestMagic):])
	r := fields{b: b[len(manifestMagic)+4:], what: "manifest"}
	if got := crc32.ChecksumIEEE(r.b); got != want {
		return nil, fmt.Errorf("store: manifest checksum mismatch (want %08x, got %08x)", want, got)
	}
	m := &Manifest{SchemeName: string(r.field())}
	copy(m.DataSum[:], r.next(uint64(len(m.DataSum))))
	m.Layout = r.field()
	m.Summary = r.field()
	m.Version = r.uvarint()
	for n := r.uvarint(); n > 0 && r.err == nil; n-- {
		if s := r.field(); r.err == nil {
			m.Members = append(m.Members, s)
		}
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return m, nil
}

// appendField appends b behind its uvarint length.
func appendField(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

// fields reads a CRC-checked payload's fields in order. The first failure
// sticks — later reads return zero values — so a decoder reads every field
// and checks once, at end.
type fields struct {
	b    []byte
	off  int
	what string
	err  error
}

func (r *fields) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("store: corrupt %s: %s", r.what, fmt.Sprintf(format, args...))
	}
}

func (r *fields) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.b[r.off:])
	if k <= 0 {
		r.fail("varint at offset %d", r.off)
		return 0
	}
	r.off += k
	return v
}

// field reads a uvarint-length-prefixed field.
func (r *fields) field() []byte { return r.next(r.uvarint()) }

// next reads the n bytes that come next.
func (r *fields) next(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)-r.off) < n {
		r.fail("%d bytes at offset %d, %d remain", n, r.off, len(r.b)-r.off)
		return nil
	}
	f := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return f
}

// end reports the first failure, or trailing bytes after the last field.
func (r *fields) end() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// encode renders c as the file a checkpoint writes — each member's snapshot
// appended straight into it, so Π is copied once — and memoises its size.
func (st *Store) encode(c *Committed) []byte {
	m := &Manifest{SchemeName: st.Scheme.Name(), DataSum: st.DataSum, Layout: c.layout.Encode(), Summary: c.summary, Version: c.version}
	size := 0
	for i := range c.members {
		size += binary.MaxVarintLen64 + snapshotSize(c.Snapshot(st.Scheme, i))
	}
	file := encodeManifest(m, len(c.members), size, func(dst []byte, i int) []byte {
		s := c.Snapshot(st.Scheme, i)
		return appendSnapshot(binary.AppendUvarint(dst, uint64(snapshotSize(s))), s)
	})
	c.snapSize.Store(int64(len(file)))
	return file
}

// A LayoutDecoder reads a dataset file's layout field and opens the dataset
// under the layout it names: open takes that layout, decodes the members and
// opens their store, and the decoder returns the dataset the store is served
// as. DecodePlain is Plain's; internal/shard decodes a partition.
type LayoutDecoder func(layout []byte, open func(Layout) (*Store, error)) (DeltaDataset, error)

// DecodePlain is the plain registration's LayoutDecoder: the empty field is
// Plain, and any other is a layout this registration does not hold — the
// file of another registration, so ErrStale.
func DecodePlain(layout []byte, open func(Layout) (*Store, error)) (DeltaDataset, error) {
	if len(layout) != 0 {
		return nil, fmt.Errorf("store: a %d-byte layout field where the plain layout has none: %w", len(layout), ErrStale)
	}
	st, err := open(Plain)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Load reopens the dataset persisted under dir as id, preprocessed by
// scheme, whatever its layout — never a panic and never a store quietly
// missing a member. want, when set, names the registration the file must
// belong to. Failures are typed for Registry.Recover: an unreadable file is
// the I/O error (missing: nothing persisted); an intact file of another
// scheme, or of a key other than want's, is ErrStale; and everything else —
// the file's CRC and decoding, its layout field, every member decoding under
// its own CRC as a snapshot of scheme, a Π or summary the scheme and layout
// will not open — is a *CorruptArtifactError at the one path there is to
// quarantine. The read and decode of the file and its members are timed as
// snapshot_load for a load that is kept; opening the store is warm's.
func Load(fsys FS, dir, id string, scheme *core.Scheme, want func() Key, decode LayoutDecoder) (DeltaDataset, error) {
	path := DatasetPath(dir, id)
	start := time.Now()
	b, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: load %s: %w", path, err)
	}
	corrupt := func(err error) error {
		return &CorruptArtifactError{Path: path, Err: fmt.Errorf("store: load %s: %w", path, err)}
	}
	m, err := DecodeManifest(b)
	if err != nil {
		return nil, corrupt(err)
	}
	if m.SchemeName != scheme.Name() {
		return nil, fmt.Errorf("store: load %s: preprocessed by %s, want %s: %w", path, m.SchemeName, scheme.Name(), ErrStale)
	}
	var decoded time.Duration
	ds, err := decode(m.Layout, func(layout Layout) (*Store, error) {
		if want != nil && want().Mismatch(Key{Scheme: m.SchemeName, Sum: m.DataSum, Layout: layout.Describe()}) != nil {
			return nil, ErrStale
		}
		members := make([]Member, len(m.Members))
		for i, enc := range m.Members {
			snap, err := DecodeSnapshot(enc)
			if err != nil {
				return nil, fmt.Errorf("member %d: %w", i, err)
			}
			if snap.SchemeName != scheme.Name() {
				return nil, fmt.Errorf("member %d preprocessed by %s, want %s", i, snap.SchemeName, scheme.Name())
			}
			members[i] = Member{Prep: snap.Prep, Sum: snap.DataSum}
		}
		decoded = time.Since(start)
		// A member Π or a summary the file vouches for and this build will
		// not open — damage the CRCs cannot see, or a layout an earlier
		// version wrote — would refuse every answer and be loaded again by
		// every re-registration.
		st, err := Open(id, scheme, m.DataSum, layout, m.Version, m.Summary, members)
		if err != nil {
			return nil, err
		}
		st.Loaded = true
		st.load().snapSize.Store(int64(len(b))) // the file just read is the value's checkpoint
		return st, nil
	})
	if errors.Is(err, ErrStale) {
		return nil, err
	}
	if err != nil {
		return nil, corrupt(err)
	}
	obsSnapshotLoad.Observe(decoded)
	return ds, nil
}
