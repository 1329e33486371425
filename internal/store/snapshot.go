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
// The registry's catalog is shape-agnostic: an entry is any Dataset — a
// plain Store here, or a composite like internal/shard's ShardedStore
// plugged in through RegisterDatasetContext — and the HTTP server answers
// through that interface, so new dataset shapes need no serving changes.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"pitract/internal/core"
)

// snapshotMagic opens every snapshot file. The trailing byte is the format
// version; bump it when the payload layout changes. Version 3 carries the
// maintenance version counter and wraps the preprocessed bytes in a
// compressed, stream-decodable section (see encodePrepSection). Any other
// version byte is an unknown format: the registry quarantines the file and
// rebuilds.
var snapshotMagic = []byte("PITRACTS\x03")

// Prep-section codecs (the first byte of a v3 snapshot's prep section).
const (
	// prepCodecRaw stores Π verbatim.
	prepCodecRaw = 0
	// prepCodecDeltaVarint stores Π as delta-varints of its non-decreasing
	// 8-byte big-endian records — the shape of every sorted-key artifact
	// (point/range selection, list membership), whose biased big-endian
	// keys are order-preserving, so a sorted file is exactly a
	// non-decreasing record sequence.
	prepCodecDeltaVarint = 1
)

// encodePrepSection renders Π as a self-describing compressed section:
//
//	codec byte ‖ body
//
// The encoder applies the delta-varint codec only when Π parses as a
// non-empty sequence of non-decreasing 8-byte big-endian records AND the
// encoding is strictly smaller; anything else ships raw. Both codecs
// decode in one forward pass with O(1) extra state per record — a reader
// can stream records out of the section without materializing Π first —
// and the codec choice is a pure function of the content, so
// encode(decode(section)) is deterministic.
func encodePrepSection(prep []byte) []byte {
	if dv := deltaEncodeRecords(prep); dv != nil {
		return append([]byte{prepCodecDeltaVarint}, dv...)
	}
	return append([]byte{prepCodecRaw}, prep...)
}

// deltaEncodeRecords delta-varint encodes a non-decreasing sequence of
// 8-byte big-endian records as
//
//	uvarint count ‖ uvarint first ‖ (count−1) × uvarint diff
//
// or returns nil when the input is not such a sequence or the encoding
// would not shrink it.
func deltaEncodeRecords(prep []byte) []byte {
	if len(prep) == 0 || len(prep)%8 != 0 {
		return nil
	}
	count := len(prep) / 8
	out := binary.AppendUvarint(nil, uint64(count))
	prev := uint64(0)
	for i := 0; i < len(prep); i += 8 {
		r := binary.BigEndian.Uint64(prep[i:])
		if i == 0 {
			out = binary.AppendUvarint(out, r)
		} else {
			if r < prev {
				return nil // not sorted: codec does not apply
			}
			out = binary.AppendUvarint(out, r-prev)
		}
		prev = r
		if len(out) >= len(prep) {
			return nil // not shrinking: raw wins
		}
	}
	return out
}

// decodePrepSection parses a snapshot's prep section. Hostile sections fail
// closed: the record count is bounded by the remaining bytes before any
// allocation, accumulator overflow is rejected, and trailing bytes are an
// error — never a panic, never an unbounded allocation.
func decodePrepSection(sec []byte) ([]byte, error) {
	if len(sec) == 0 {
		return nil, fmt.Errorf("store: empty snapshot prep section")
	}
	codec, body := sec[0], sec[1:]
	switch codec {
	case prepCodecRaw:
		return append([]byte(nil), body...), nil
	case prepCodecDeltaVarint:
		count, k := binary.Uvarint(body)
		if k <= 0 {
			return nil, fmt.Errorf("store: corrupt prep section record count")
		}
		body = body[k:]
		// Every record costs at least one varint byte, so a count beyond
		// the remaining bytes is hostile — reject before allocating 8×.
		if count == 0 || count > uint64(len(body)) {
			return nil, fmt.Errorf("store: prep section claims %d records with %d bytes remaining", count, len(body))
		}
		prep := make([]byte, 0, count*8)
		prev := uint64(0)
		for i := uint64(0); i < count; i++ {
			d, k := binary.Uvarint(body)
			if k <= 0 {
				return nil, fmt.Errorf("store: corrupt prep section at record %d", i)
			}
			body = body[k:]
			if i == 0 {
				prev = d
			} else {
				next := prev + d
				if next < prev {
					return nil, fmt.Errorf("store: prep section record %d overflows", i)
				}
				prev = next
			}
			prep = binary.BigEndian.AppendUint64(prep, prev)
		}
		if len(body) != 0 {
			return nil, fmt.Errorf("store: %d trailing prep section bytes", len(body))
		}
		return prep, nil
	default:
		return nil, fmt.Errorf("store: unknown prep section codec %d", codec)
	}
}

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
//	payload = PadPair(PadPair(scheme, notes), PadPair(dataSum ‖ uvarint(maintVersion), prepSection))
//
// where prepSection is Π wrapped in the compressed, stream-decodable
// section format (see encodePrepSection): sorted-key artifacts shrink to
// delta-varints of their records, everything else ships raw behind a
// one-byte codec tag.
func EncodeSnapshot(s *Snapshot) []byte {
	header := core.PadPair([]byte(s.SchemeName), []byte(s.Notes))
	meta := binary.AppendUvarint(append([]byte(nil), s.DataSum[:]...), s.Version)
	body := core.PadPair(meta, encodePrepSection(s.Prep))
	payload := core.PadPair(header, body)
	out := make([]byte, 0, len(snapshotMagic)+4+len(payload))
	out = append(out, snapshotMagic...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// DecodeSnapshot parses the versioned format. Any deviation — wrong magic,
// unknown version, bad checksum, truncated or malformed payload or prep
// section — is an error; DecodeSnapshot never panics on hostile input.
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
	}
	if s.Prep, err = decodePrepSection(prep); err != nil {
		return nil, err
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
// checksum mismatch, or an undecodable body — as opposed to a transient
// I/O error reading it. The registry responds by renaming the artifact at
// Path to *.quarantine and rebuilding from source (see Registry.Recover)
// rather than wedging the dataset. The message is the underlying error's,
// unchanged.
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
	// ID is the dataset identifier the store was registered under ("" for
	// stores opened directly from a path).
	ID string
	// Scheme is the Π-tractability scheme that produced — and answers
	// against — the preprocessed bytes.
	Scheme *core.Scheme
	// Prep is Π(D) of a store assembled by hand, read once: the first use
	// publishes it at version 0. Register and Open publish theirs directly
	// and leave it nil, so a maintained store retains no Π but the committed
	// one. Read the current Π through View (or Answer/Snapshot), never here.
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
	// Maintenance.Mu and by RetryPrepare's compare-and-swap.
	state atomic.Pointer[committed]
}

// committed is everything a plain store answers from and checkpoints at one
// version: immutable once published, but for memos that go from unset to
// the one value ⟨prep, version⟩ determines.
type committed struct {
	prep []byte
	// version counts the deltas applied since registration; it only ever
	// grows, and every applied delta bumps it by one.
	version uint64
	// forms memoises, per Mode, the answerer decoded from prep — the scheme's
	// typed prepared form (Exact, (*core.Scheme).Prepare), its declared fallback
	// (Degraded, Scheme.PrepareFallback) — each built by its first use, once:
	// askers arriving meanwhile wait for that build rather than start their
	// own (the labels fallback is a whole closure build). A failed build is
	// sticky for the value (a corrupt Π errors once at preparation; every
	// answer surfaces it, matching the raw path's per-query validation error)
	// until RetryPrepare publishes a fresh one.
	forms [2]func() (core.Answerer, error)
	// snapSize memoises SnapshotBytes (0 = not encoded yet), so a /v1/stats
	// scrape encodes a snapshot at most once per version.
	snapSize atomic.Int64
}

// newCommitted is ⟨prep, version⟩ with nothing memoised yet.
func newCommitted(scheme *core.Scheme, prep []byte, version uint64) *committed {
	return &committed{prep: prep, version: version, forms: [2]func() (core.Answerer, error){
		Exact:    sync.OnceValues(func() (core.Answerer, error) { return Prepare(scheme, prep) }),
		Degraded: sync.OnceValues(func() (core.Answerer, error) { return scheme.PrepareFallback(prep) }),
	}}
}

// newStore is the one constructor Register and Open share: ⟨Π, version⟩ is
// published directly and Prep stays nil.
func newStore(id string, scheme *core.Scheme, sum DataChecksum, prep []byte, version uint64, loaded bool) *Store {
	st := &Store{ID: id, Scheme: scheme, DataSum: sum, Loaded: loaded}
	st.state.Store(newCommitted(scheme, prep, version))
	return st
}

// load returns the committed value — every reader's one read of shared
// state — publishing a hand-assembled store's Prep on first use; goroutines
// racing there agree on whichever value landed.
func (st *Store) load() *committed {
	c := st.state.Load()
	if c == nil {
		st.state.CompareAndSwap(nil, newCommitted(st.Scheme, st.Prep, 0))
		c = st.state.Load()
	}
	return c
}

// PrepareError marks a failed Scheme.Prepare — the answerer build —
// as opposed to a per-query validation failure. The serving layer
// classifies it as a server-side fault (the dataset's Π is unreadable)
// and counts it against the dataset's health breaker, whose half-open
// probe retries the build via RetryPrepare. The message is the
// underlying error's, unchanged, so the raw path's pinned error
// strings hold.
type PrepareError struct{ Err error }

func (e *PrepareError) Error() string { return e.Err.Error() }

func (e *PrepareError) Unwrap() error { return e.Err }

// Prepare decodes Π into scheme's prepared answerer — for a plain store and
// for each member of a sharded one — typing a failure as a *PrepareError
// exactly once.
func Prepare(scheme *core.Scheme, prep []byte) (core.Answerer, error) {
	a, err := scheme.Prepare(prep)
	var pe *PrepareError
	if err != nil && !errors.As(err, &pe) {
		return nil, &PrepareError{Err: err}
	}
	return a, err
}

// Askable refuses an ask before any work, in the same words for every
// dataset kind: a mode the dataset cannot serve — a property of the dataset,
// not of any one query — or a cancelled ctx.
func Askable(ctx context.Context, ds Dataset, mode Mode) error {
	if mode == Degraded && !ds.CanDegrade() {
		return fmt.Errorf("scheme %s: %w", ds.SchemeName(), ErrNoFallback)
	}
	return ctx.Err()
}

// View returns the current preprocessed string and the maintenance version
// it corresponds to, as one consistent pair. The returned slice is the
// immutable committed Π — a commit replaces the slice rather than mutating
// it, so callers may read it freely.
func (st *Store) View() ([]byte, uint64) {
	c := st.load()
	return c.prep, c.version
}

// Warm is the exact form's first use, made by registration and snapshot
// reloads before the store is shared, so the first query pays a probe, not
// a decode. Prepare failures are not fatal here — they surface, with the
// identical message, on every subsequent Answer.
func (st *Store) Warm() { st.load().forms[Exact]() }

// RetryPrepare implements Dataset: it builds the exact form of the
// committed Π again and republishes ⟨Π, version⟩ with it, dropping the old
// forms, successful or failed. This is the heal path for a Prepare that
// failed transiently (e.g. an injected I/O fault inside a scheme's decode):
// without it the first failure would poison the store until restart. A
// breaker's half-open probe calls it beside any maintainer, so the swap is
// conditional on the value loaded here: a commit that lands during the
// build stays — it prepared its own Π.
func (st *Store) RetryPrepare() error {
	c := st.load()
	next := newCommitted(st.Scheme, c.prep, c.version)
	_, err := next.forms[Exact]()
	st.state.CompareAndSwap(c, next)
	return err
}

// Version implements Dataset: the number of deltas applied since
// registration.
func (st *Store) Version() uint64 { return st.load().version }

// Stage implements DeltaDataset: Π ← ApplyDelta(…ApplyDelta(Π, ∆D₁)…, ∆Dₖ)
// on a private copy, and the maintained Π's prepared answerer, built here —
// where no query waits — into the next committed value; the commit is one
// pointer store. The fallback is built by the next degraded ask.
func (st *Store) Stage(ctx context.Context, inc *core.IncrementalScheme, deltas [][]byte) (func(version uint64), error) {
	cur := st.load().prep
	for i, delta := range deltas {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("store: delta %d: %w (nothing applied)", i, err)
		}
		next, err := inc.ApplyDelta(cur, delta)
		if err != nil {
			return nil, fmt.Errorf("store: delta %d: %w (nothing applied)", i, err)
		}
		cur = next
	}
	next := newCommitted(st.Scheme, cur, 0)
	next.forms[Exact]()
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

// CanDegrade implements Dataset: whether the scheme declares a cheaper
// fallback answerer.
func (st *Store) CanDegrade() bool { return st.Scheme.PrepareFallback != nil }

// Ask implements Dataset: one query through the answerer mode selects —
// the scheme's prepared (decoded-once) form, or its declared fallback; the
// raw Scheme.Answer stays available as the differential oracle. ctx is
// checked up front (a single prepared probe is too fine-grained to
// interrupt mid-flight).
func (st *Store) Ask(ctx context.Context, q []byte, mode Mode) (Verdict, error) {
	if err := Askable(ctx, st, mode); err != nil {
		return Verdict{}, err
	}
	c := st.load()
	a, err := c.forms[mode]()
	if err != nil {
		return Verdict{Version: c.version}, err
	}
	ans, err := a.Answer(q)
	return Verdict{Answer: ans, Version: c.version, Degraded: mode == Degraded}, err
}

// AskBatch implements Dataset: queries answered concurrently through the
// scheme's worker pool (parallelism <= 0 selects GOMAXPROCS), ctx consulted
// before every probe so an expired deadline abandons the remainder of the
// batch instead of paying it. The whole batch answers against one
// consistent Π — the committed value is loaded once up front, even if a
// delta commits mid-batch. An Exact batch under a deadline starts on the
// prepared form and switches to the scheme's declared fallback (when it has
// one) once less than a quarter of the budget remains.
func (st *Store) AskBatch(ctx context.Context, queries [][]byte, parallelism int, mode Mode) (Verdicts, error) {
	if err := Askable(ctx, st, mode); err != nil {
		return Verdicts{}, err
	}
	c := st.load()
	vs := Verdicts{Answers: []bool{}, Version: c.version}
	if len(queries) == 0 {
		// The raw batch path returns no error on an empty batch even over
		// a corrupt Π (it never calls Answer); match it.
		return vs, nil
	}
	a, err := c.forms[mode]()
	if err != nil {
		// A corrupt Π fails the raw path at its first query; report the
		// sticky build error in exactly that shape.
		return vs, fmt.Errorf("scheme %s: batch query %d: %w", st.Scheme.Name(), 0, err)
	}
	var fallbacks *atomic.Int64
	if mode == Degraded {
		vs.Degraded = len(queries)
	} else if deadline, ok := ctx.Deadline(); ok && st.CanDegrade() {
		fallbacks = new(atomic.Int64)
		a = c.fallbackWhenLow(a, deadline, fallbacks)
	}
	vs.Answers, err = core.AnswerBatchPreparedContext(ctx, st.Scheme.Name(), a, queries, parallelism)
	if fallbacks != nil {
		vs.Degraded = int(fallbacks.Load())
	}
	return vs, err
}

// fallbackWhenLow wraps a batch's exact answerer: once less than a quarter
// of the budget measured from now remains before deadline, the remaining
// probes go to the scheme's declared fallback, counted in taken. The
// fallback is c's own, so one batch answers at one version whatever commits
// beside it.
func (c *committed) fallbackWhenLow(exact core.Answerer, deadline time.Time, taken *atomic.Int64) core.Answerer {
	start := time.Now()
	return core.AnswererFunc(func(q []byte) (bool, error) {
		if budgetLow(start, deadline) {
			if fb, err := c.forms[Degraded](); err == nil {
				taken.Add(1)
				return fb.Answer(q)
			}
		}
		return exact.Answer(q)
	})
}

// Answer implements Dataset: Ask in Exact mode with no deadline.
func (st *Store) Answer(q []byte) (bool, error) {
	v, err := st.Ask(context.Background(), q, Exact)
	return v.Answer, err
}

// AnswerBatch implements Dataset: AskBatch in Exact mode with no deadline.
func (st *Store) AnswerBatch(queries [][]byte, parallelism int) ([]bool, error) {
	vs, err := st.AskBatch(context.Background(), queries, parallelism, Exact)
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
