// Package store persists preprocessed stores and serves them from a
// registry. The paper's asymmetry — pay PTIME preprocessing once, then
// answer every query within the NC budget — only pays off in a system when
// Π(D) outlives the process that computed it. This package makes Π(D) a
// durable artifact: one versioned, checksummed file per dataset that can be
// written once and reloaded across restarts, plus a thread-safe Registry
// that maps dataset IDs to preprocessed stores, preprocessing on first
// registration and memoizing (and optionally persisting) thereafter.
//
// The file format is deliberately dumb (manifest.go): magic, format
// version, a CRC-32 of the payload, then the scheme name, a SHA-256 of the
// raw data the dataset was preprocessed from, the layout's own bytes, the
// cross-member summary, the maintenance version, and the members — each a
// snapshot (magic, CRC, scheme name, data digest, version and Π), the one
// member of a plain dataset or one per part of a partitioned one. Corrupt or
// truncated files are rejected with errors, never panics (see the fuzz
// harnesses).
//
// Every Π the registry publishes — built, reloaded or maintained — is
// prepared first (core.Scheme.Prepare), and a Π the scheme will not read is
// refused where it would be committed: the registration fails, the artifact
// is quarantined and rebuilt, or the PATCH applies nothing. A served dataset
// therefore always holds an answerer, never a stored failure.
//
// A dataset is maintained through the ApplyDelta of the core.Scheme it was
// registered with (DeltaDataset.Stage), so the package knows schemes only
// through internal/core: a scheme of any name that sets ApplyDelta can be
// PATCHed and its delta log replayed, and one that does not refuses every
// delta with nothing applied.
//
// A dataset is one Store (store.go), whether its Π is one member or n: its
// Layout — Plain here, a partition in internal/shard — says where a delta
// goes, what a query answers through and what the file's layout field
// holds, and everything else (staging, answering, the accessors, the file,
// loading and registration) exists once. The registry's catalog holds any
// Dataset, and the HTTP server answers through that interface.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// snapshotMagic opens every snapshot. The trailing byte is the format
// version; bump it when the payload layout — or the layout of a Π it carries —
// changes. Version 5 dropped the free-text notes the fourth version carried
// beside the scheme name; version 4 stored Π as it is, where the third
// version's delta-varint section codec shrank the sorted key files. Any other
// version byte is an unknown format: the registry quarantines the file that
// holds it and rebuilds.
var snapshotMagic = []byte("PITRACTS\x05")

// DataChecksum is the SHA-256 digest of the raw (pre-preprocessing) data a
// snapshot was built from. Open uses it to detect stale snapshots: when the
// data under a dataset ID changes, the old Π(D) is silently invalid, so the
// digest — not the file's existence — decides whether a reload is sound.
type DataChecksum = [sha256.Size]byte

// Snapshot is one persisted member of a dataset: which scheme produced it,
// the digest of the data it was preprocessed from, the maintenance version
// (how many deltas have been applied to Π since registration — 0 for a store
// that has only ever been preprocessed), and Π itself. A snapshot with
// Version > 0 holds the maintained Π(D ⊕ ∆D₁ ⊕ … ⊕ ∆Dₖ), so a restart
// resumes from the maintained structure, never a stale one.
type Snapshot struct {
	SchemeName string
	DataSum    DataChecksum
	Version    uint64
	Prep       []byte
}

// snapshotSize is the length of s's encoding, so a manifest can prefix a
// member with it before appending the member itself.
func snapshotSize(s *Snapshot) int {
	return len(snapshotMagic) + 4 + uvarintLen(uint64(len(s.SchemeName))) + len(s.SchemeName) +
		len(s.DataSum) + uvarintLen(s.Version) + uvarintLen(uint64(len(s.Prep))) + len(s.Prep)
}

// appendSnapshot appends s in the versioned format, Π copied once:
//
//	magic ‖ version ‖ crc32(payload) ‖ payload
//	payload = scheme ‖ dataSum ‖ uvarint(maintVersion) ‖ Π
//
// with the scheme and Π uvarint-length-prefixed.
func appendSnapshot(dst []byte, s *Snapshot) []byte {
	dst = append(dst, snapshotMagic...)
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0) // the CRC, once the payload is behind it
	dst = appendField(dst, []byte(s.SchemeName))
	dst = append(dst, s.DataSum[:]...)
	dst = binary.AppendUvarint(dst, s.Version)
	dst = appendField(dst, s.Prep)
	binary.BigEndian.PutUint32(dst[at:], crc32.ChecksumIEEE(dst[at+4:]))
	return dst
}

// EncodeSnapshot renders a snapshot in the versioned format (appendSnapshot).
func EncodeSnapshot(s *Snapshot) []byte {
	return appendSnapshot(make([]byte, 0, snapshotSize(s)), s)
}

// DecodeSnapshot parses the versioned format. Any deviation — wrong magic,
// unknown version, bad checksum, truncated or malformed payload — is an
// error; DecodeSnapshot never panics on hostile input. Π is copied out of b.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < len(snapshotMagic)+4 {
		return nil, fmt.Errorf("store: snapshot too short (%d bytes)", len(b))
	}
	for i, m := range snapshotMagic[:len(snapshotMagic)-1] {
		if b[i] != m {
			return nil, fmt.Errorf("store: bad snapshot magic (offset %d)", i)
		}
	}
	if verByte := b[len(snapshotMagic)-1]; verByte != snapshotMagic[len(snapshotMagic)-1] {
		return nil, fmt.Errorf("store: unknown snapshot format version %d", verByte)
	}
	want := binary.BigEndian.Uint32(b[len(snapshotMagic):])
	r := fields{b: b[len(snapshotMagic)+4:], what: "snapshot"}
	if got := crc32.ChecksumIEEE(r.b); got != want {
		return nil, fmt.Errorf("store: snapshot checksum mismatch (want %08x, got %08x)", want, got)
	}
	s := &Snapshot{SchemeName: string(r.field())}
	copy(s.DataSum[:], r.next(uint64(len(s.DataSum))))
	s.Version = r.uvarint()
	s.Prep = append([]byte(nil), r.field()...)
	if err := r.end(); err != nil {
		return nil, err
	}
	return s, nil
}

// SaveFS writes a snapshot atomically (see WriteFileAtomicFS); the checksum
// in the encoding catches torn files from less careful writers. No server
// path writes a standalone snapshot any more — a dataset's file is the
// manifest (Store.Checkpoint) — so bench/ladder.go, which times the codec
// on its own, is its one caller until ROADMAP item 2.
func SaveFS(fsys FS, path string, s *Snapshot) error {
	return WriteFileAtomicFS(fsys, path, EncodeSnapshot(s))
}

// LoadFS reads and validates a snapshot file written by SaveFS; like SaveFS,
// its one caller is bench/ladder.go until ROADMAP item 2. A dataset's file
// is read by Load.
func LoadFS(fsys FS, path string) (*Snapshot, error) {
	b, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: load %s: %w", path, err)
	}
	s, err := DecodeSnapshot(b)
	if err != nil {
		// Structural failure (magic, CRC, decode) on bytes the medium
		// delivered intact: the artifact itself is corrupt, not the read.
		// The typed wrapper lets the registry quarantine-and-rebuild
		// instead of treating it like a transient I/O error.
		return nil, &CorruptArtifactError{Path: path, Err: fmt.Errorf("store: load %s: %w", path, err)}
	}
	return s, nil
}

// CorruptArtifactError marks a persisted artifact (a dataset's file or its
// delta log) that failed structural validation — wrong magic,
// checksum mismatch, an undecodable body, or a Π its scheme will not
// Prepare — as opposed to a transient I/O error reading it. The registry
// responds by renaming the artifact at Path to *.quarantine and rebuilding
// from source (see Registry.Recover) rather than wedging the dataset. The
// message is the underlying error's, unchanged.
type CorruptArtifactError struct {
	Path string
	Err  error
}

func (e *CorruptArtifactError) Error() string { return e.Err.Error() }

func (e *CorruptArtifactError) Unwrap() error { return e.Err }

// SumData digests raw data for snapshot freshness checks.
func SumData(data []byte) DataChecksum { return sha256.Sum256(data) }
