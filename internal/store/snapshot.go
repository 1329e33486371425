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
// The registry's catalog is shape-agnostic: an entry is any Dataset — a
// plain Store here, or a composite like internal/shard's ShardedStore
// plugged in through RegisterDatasetContext — and the HTTP server answers
// through that interface, so new dataset shapes need no serving changes.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"pitract/internal/core"
	"pitract/internal/obs"
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

// Store is one preprocessed store ready to answer queries: a scheme plus
// its Π(D). Any number of goroutines may call Answer or AnswerBatch
// concurrently (the scheme concurrency contract, core/batch.go), and —
// when the scheme has an incremental form — ApplyDeltas maintains Π(D ⊕ ∆D)
// through Stage. What a query reads is one immutable committed value behind
// an atomic pointer, as in internal/shard's ShardedStore: a reader loads it
// once and a commit stores the next, so a query answers against a fully
// applied Π (old or new), never a torn one, and neither waits on the other.
type Store struct {
	// ID is the dataset identifier the store was registered under ("" for a
	// store assembled by hand without one).
	ID string
	// Scheme is the Π-tractability scheme that produced — and answers
	// against — the preprocessed bytes.
	Scheme *core.Scheme
	// Prep is Π(D) of a store assembled by hand, read once: the first use
	// prepares and publishes it at version 0. Register publishes its Π
	// directly and leaves Prep nil, so a maintained store retains no Π but
	// the committed one. Read the current Π through View (or Answer/Snapshot), never here.
	Prep []byte
	// DataSum digests the raw data the store was originally registered
	// from. Deltas do not change it — the digest pins the registration
	// identity, while Version counts the maintenance steps applied since.
	DataSum DataChecksum
	// Loaded reports whether Π came from a snapshot file (true) or a fresh
	// Preprocess call (false).
	Loaded bool

	// Maintenance serializes maintainers (see ApplyDeltas): staging and
	// snapshot I/O run under its mutex, which no reader ever takes.
	Maintenance
	// state is the committed value: published by newStore (or a literal's
	// first use), replaced — always whole — only by a Stage commit under
	// Maintenance.Mu.
	state atomic.Pointer[committed]
}

// committed is everything a plain store answers from and checkpoints at one
// version: immutable once published, but for the memoised snapshot size.
type committed struct {
	prep []byte
	// version counts the deltas applied since registration; it only ever
	// grows, and every applied delta bumps it by one.
	version uint64
	// answerer is the scheme's prepared form of prep, (*core.Scheme).Prepare,
	// built before the value is published: a Π the scheme refuses is never
	// committed.
	answerer core.Answerer
	// snapSize memoises SnapshotBytes (0 = not encoded yet), so a /v1/stats
	// scrape encodes a snapshot at most once per version.
	snapSize atomic.Int64
}

// prepare is ⟨prep, version⟩ with its answerer, or the scheme's refusal to
// read prep.
func prepare(scheme *core.Scheme, prep []byte, version uint64) (*committed, error) {
	a, err := scheme.Prepare(prep)
	if err != nil {
		return nil, err
	}
	return &committed{prep: prep, version: version, answerer: a}, nil
}

// newStore is the one constructor Register's load and build share: ⟨Π,
// version⟩ is prepared and published directly, and Prep stays nil. A Π the
// scheme will not prepare is refused here, before anything is registered.
func newStore(id string, scheme *core.Scheme, sum DataChecksum, prep []byte, version uint64, loaded bool) (*Store, error) {
	start := obs.Start()
	c, err := prepare(scheme, prep, version)
	if err != nil {
		return nil, err
	}
	obsWarm.Since(start)
	st := &Store{ID: id, Scheme: scheme, DataSum: sum, Loaded: loaded}
	st.state.Store(c)
	return st, nil
}

// load returns the committed value — every reader's one read of shared
// state — preparing and publishing a hand-assembled store's Prep on first
// use; goroutines racing there agree on whichever value landed. A literal
// over a Π its scheme refuses answers every query with that refusal, as
// (*core.Scheme).Answer does.
func (st *Store) load() *committed {
	c := st.state.Load()
	if c == nil {
		next, err := prepare(st.Scheme, st.Prep, 0)
		if err != nil {
			next = &committed{prep: st.Prep, answerer: core.AnswererFunc(func([]byte) (bool, error) { return false, err })}
		}
		st.state.CompareAndSwap(nil, next)
		c = st.state.Load()
	}
	return c
}

// View returns the current preprocessed string and the maintenance version
// it corresponds to, as one consistent pair. The returned slice is the
// immutable committed Π — a commit replaces the slice rather than mutating
// it, so callers may read it freely.
func (st *Store) View() ([]byte, uint64) {
	c := st.load()
	return c.prep, c.version
}

// Warm is a hand-assembled store's first use, so its first query pays a
// probe, not a Prepare. A registered store is prepared when it is built.
func (st *Store) Warm() { st.load() }

// Version implements Dataset: the number of deltas applied since
// registration.
func (st *Store) Version() uint64 { return st.load().version }

// Stage implements DeltaDataset: Π ← ApplyDelta(…ApplyDelta(Π, ∆D₁)…, ∆Dₖ)
// on a private copy, and the maintained Π's prepared answerer, built here —
// where no query waits — into the next committed value; the commit is one
// pointer store. A maintained Π the scheme will not prepare refuses the
// batch, as does a scheme with no ApplyDelta.
func (st *Store) Stage(ctx context.Context, deltas [][]byte) (func(version uint64), error) {
	if st.Scheme.ApplyDelta == nil {
		return nil, fmt.Errorf("store: scheme %s has no incremental form (nothing applied)", st.Scheme.Name())
	}
	cur := st.load().prep
	for i, delta := range deltas {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("store: delta %d: %w (nothing applied)", i, err)
		}
		next, err := st.Scheme.ApplyDelta(cur, delta)
		if err != nil {
			return nil, fmt.Errorf("store: delta %d: %w (nothing applied)", i, err)
		}
		cur = next
	}
	next, err := prepare(st.Scheme, cur, 0)
	if err != nil {
		return nil, fmt.Errorf("store: prepare: %w (nothing applied)", err)
	}
	return func(version uint64) {
		next.version = version
		st.state.Store(next)
	}, nil
}

// Checkpoint implements DeltaDataset: the committed ⟨Π, version⟩ rewritten
// as the snapshot a restarted registry reloads (atomic rename + directory
// fsync).
func (st *Store) Checkpoint(fsys FS, dir string) error {
	return SaveFS(fsys, SnapshotPath(dir, st.ID), st.Snapshot())
}

// DatasetID implements Dataset.
func (st *Store) DatasetID() string { return st.ID }

// SchemeName implements Dataset.
func (st *Store) SchemeName() string { return st.Scheme.Name() }

// DataDigest implements Dataset.
func (st *Store) DataDigest() DataChecksum { return st.DataSum }

// PrepBytes implements Dataset: the size of the current Π.
func (st *Store) PrepBytes() int { return len(st.load().prep) }

// ShardCount implements Dataset: a plain store is its own single shard.
func (st *Store) ShardCount() int { return 1 }

// SnapshotBytes implements Dataset: the encoded size of the store's
// snapshot at its current version — what a checkpoint would write, whether
// or not the store is persisted. The size is encoded once per committed
// value and memoized there: a stats scrape must not re-encode Π (racing
// scrapes of a fresh value may each encode it).
func (st *Store) SnapshotBytes() int {
	c := st.load()
	if size := c.snapSize.Load(); size != 0 {
		return int(size)
	}
	size := len(EncodeSnapshot(NewSnapshot(st.Scheme, st.DataSum, c.version, c.prep)))
	c.snapSize.Store(int64(size))
	return size
}

// WasLoaded implements Dataset.
func (st *Store) WasLoaded() bool { return st.Loaded }

// Ask implements Dataset: one query through the scheme's prepared
// (decoded-once) form. ctx is checked up front (a single prepared probe is
// too fine-grained to interrupt mid-flight).
func (st *Store) Ask(ctx context.Context, q []byte) (Verdict, error) {
	if err := ctx.Err(); err != nil {
		return Verdict{}, err
	}
	c := st.load()
	ans, err := c.answerer.Answer(q)
	return Verdict{Answer: ans, Version: c.version}, err
}

// AskBatch implements Dataset: queries answered concurrently through the
// scheme's worker pool (parallelism <= 0 selects GOMAXPROCS), ctx consulted
// before every probe so an expired deadline abandons the remainder of the
// batch instead of paying it. The whole batch answers against one
// consistent Π — the committed value is loaded once up front, even if a
// delta commits mid-batch.
func (st *Store) AskBatch(ctx context.Context, queries [][]byte, parallelism int) (Verdicts, error) {
	if err := ctx.Err(); err != nil {
		return Verdicts{}, err
	}
	c := st.load()
	vs := Verdicts{Answers: []bool{}, Version: c.version}
	if len(queries) == 0 {
		return vs, nil
	}
	var err error
	vs.Answers, err = core.AnswerBatchPrepared(ctx, st.Scheme.Name(), c.answerer, queries, parallelism)
	return vs, err
}

// Answer implements Dataset: Ask with no deadline.
func (st *Store) Answer(q []byte) (bool, error) {
	v, err := st.Ask(context.Background(), q)
	return v.Answer, err
}

// AnswerBatch implements Dataset: AskBatch with no deadline.
func (st *Store) AnswerBatch(queries [][]byte, parallelism int) ([]bool, error) {
	vs, err := st.AskBatch(context.Background(), queries, parallelism)
	return vs.Answers, err
}

// Snapshot renders the store as a persistable snapshot.
func (st *Store) Snapshot() *Snapshot {
	c := st.load()
	return NewSnapshot(st.Scheme, st.DataSum, c.version, c.prep)
}

// NewSnapshot renders one committed ⟨Π, version⟩ of scheme's artifact, over
// the data sum digests, as a persistable snapshot — the one place the notes
// are spelled, so a plain store's snapshot and a shard member's (which is no
// Store) encode alike.
func NewSnapshot(scheme *core.Scheme, sum DataChecksum, version uint64, prep []byte) *Snapshot {
	return &Snapshot{
		SchemeName: scheme.Name(),
		Notes:      scheme.PreprocessNote + " / " + scheme.AnswerNote,
		DataSum:    sum,
		Version:    version,
		Prep:       prep,
	}
}
