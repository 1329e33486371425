// Package store persists preprocessed stores and serves them from a
// registry. The paper's asymmetry — pay PTIME preprocessing once, then
// answer every query within the NC budget — only pays off in a system when
// Π(D) outlives the process that computed it. This package makes Π(D) a
// durable artifact: a versioned, checksummed snapshot file that can be
// written once and reloaded across restarts, plus a thread-safe Registry
// that maps dataset IDs to preprocessed stores, preprocessing on first
// registration and memoizing (and optionally persisting) thereafter.
//
// The snapshot format is deliberately dumb: magic, format version, a CRC-32
// of the payload, then the scheme name, free-text notes, a SHA-256 of the
// raw data the store was preprocessed from, and the preprocessed bytes —
// the fields framed with the same self-delimiting pair codec (core.PadPair)
// the formal framework uses for instance encoding. Corrupt or truncated
// files are rejected with errors, never panics (see the fuzz harness).
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
// goes, what a query answers through and which file a checkpoint writes,
// and everything else (staging, answering, the accessors, registration)
// exists once. The registry's catalog holds any Dataset, and the HTTP server
// answers through that interface.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"pitract/internal/core"
)

// snapshotMagic opens every snapshot file. The trailing byte is the format
// version; bump it when the payload layout — or the layout of a Π it carries —
// changes. Version 4 stores Π as it is: the sorted key files, the one Π the
// third version's delta-varint section codec shrank, are Elias–Fano sequences
// of their own now. Any other version byte is an unknown format: the registry
// quarantines the file and rebuilds.
var snapshotMagic = []byte("PITRACTS\x04")

// DataChecksum is the SHA-256 digest of the raw (pre-preprocessing) data a
// snapshot was built from. Open uses it to detect stale snapshots: when the
// data under a dataset ID changes, the old Π(D) is silently invalid, so the
// digest — not the file's existence — decides whether a reload is sound.
type DataChecksum = [sha256.Size]byte

// Snapshot is one persisted preprocessed store: which scheme produced it,
// human-readable notes (the scheme's complexity annotations by default), the
// digest of the data it was preprocessed from, the maintenance version (how
// many deltas have been applied to Π since registration — 0 for a store
// that has only ever been preprocessed), and Π itself. A snapshot with
// Version > 0 holds the maintained Π(D ⊕ ∆D₁ ⊕ … ⊕ ∆Dₖ), so a restart
// resumes from the maintained structure, never a stale one.
type Snapshot struct {
	SchemeName string
	Notes      string
	DataSum    DataChecksum
	Version    uint64
	Prep       []byte
}

// EncodeSnapshot renders a snapshot in the versioned on-disk format:
//
//	magic ‖ version ‖ crc32(payload) ‖ payload
//	payload = PadPair(PadPair(scheme, notes), PadPair(dataSum ‖ uvarint(maintVersion), Π))
func EncodeSnapshot(s *Snapshot) []byte {
	header := core.PadPair([]byte(s.SchemeName), []byte(s.Notes))
	meta := binary.AppendUvarint(append([]byte(nil), s.DataSum[:]...), s.Version)
	body := core.PadPair(meta, s.Prep)
	payload := core.PadPair(header, body)
	out := make([]byte, 0, len(snapshotMagic)+4+len(payload))
	out = append(out, snapshotMagic...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
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
	payload := b[len(snapshotMagic)+4:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("store: snapshot checksum mismatch (want %08x, got %08x)", want, got)
	}
	header, body, err := core.UnpadPair(payload)
	if err != nil {
		return nil, fmt.Errorf("store: corrupt snapshot payload: %w", err)
	}
	scheme, notes, err := core.UnpadPair(header)
	if err != nil {
		return nil, fmt.Errorf("store: corrupt snapshot header: %w", err)
	}
	meta, prep, err := core.UnpadPair(body)
	if err != nil {
		return nil, fmt.Errorf("store: corrupt snapshot body: %w", err)
	}
	s := &Snapshot{
		SchemeName: string(scheme),
		Notes:      string(notes),
		Prep:       append([]byte(nil), prep...),
	}
	if len(meta) < len(s.DataSum) {
		return nil, fmt.Errorf("store: data checksum is %d bytes, want %d", len(meta), len(s.DataSum))
	}
	copy(s.DataSum[:], meta)
	rest := meta[len(s.DataSum):]
	ver, k := binary.Uvarint(rest)
	if k <= 0 || k != len(rest) {
		return nil, fmt.Errorf("store: corrupt snapshot maintenance version")
	}
	s.Version = ver
	return s, nil
}

// SaveFS writes a snapshot atomically (see WriteFileAtomicFS); the checksum
// in the encoding catches torn files from less careful writers.
func SaveFS(fsys FS, path string, s *Snapshot) error {
	return WriteFileAtomicFS(fsys, path, EncodeSnapshot(s))
}

// LoadFS reads and validates a snapshot file.
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

// CorruptArtifactError marks a persisted artifact (snapshot, shard
// manifest or delta log) that failed structural validation — wrong magic,
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

// NewSnapshot renders one member's ⟨Π, version⟩ of scheme's artifact, over
// the data sum digests, as a persistable snapshot — the one place the notes
// are spelled, so a plain store's snapshot and a shard member's encode alike.
func NewSnapshot(scheme *core.Scheme, sum DataChecksum, version uint64, prep []byte) *Snapshot {
	return &Snapshot{
		SchemeName: scheme.Name(),
		Notes:      scheme.PreprocessNote + " / " + scheme.AnswerNote,
		DataSum:    sum,
		Version:    version,
		Prep:       prep,
	}
}
