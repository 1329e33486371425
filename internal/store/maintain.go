// The write side, written once: how a delta batch commits (stage → log →
// commit → checkpoint) and how a restart recovers what was committed (load
// → quarantine → replay). A dataset supplies the two steps, Stage and
// Checkpoint (DeltaDataset) — Store's, for one member or n, whose Layout
// says where a delta goes, and which writes the one file; the order of
// everything durable, and every call of the delta-log primitives (wal.go),
// lives in this file, so no layout can drift apart from another in what a
// crash or a corrupt artifact costs.
package store

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"sync"
	"time"

	"pitract/internal/obs"
)

// Maintenance-path stage histograms and counters. The in-memory staging,
// the log append (the commit point) and the checkpoint rewrite are timed
// separately so dashboards can tell CPU-bound maintenance apart from
// fsync-bound persistence. Checkpoint failures after a durable log append
// are counted, not fatal — the log stays authoritative and the next batch
// retries the checkpoint.
var (
	obsPatchApply      = obs.Stage(obs.StagePatchApply)
	obsPatchPersist    = obs.Stage(obs.StagePatchPersist)
	obsLogAppend       = obs.Stage(obs.StageLogAppend)
	obsLogReplay       = obs.Stage(obs.StageLogReplay)
	obsCheckpointFails = obs.Default.Counter("pitract_checkpoint_failures_total",
		"Checkpoint (snapshot rewrite + log truncate) failures after a durable log append.")
	obsLogReplayedTotal = obs.Default.Counter("pitract_log_records_replayed_total",
		"Delta-log records replayed over loaded snapshots at registry open.")
)

// ErrStale is what a Recover load function returns for a persisted artifact
// that is intact but belongs to a different registration — another scheme,
// other data, another shard layout: Recover rebuilds from source and drops
// the superseded delta log, without quarantining anything.
var ErrStale = errors.New("store: persisted artifact belongs to a different registration")

// Maintenance is the write-side state every maintainable dataset embeds.
type Maintenance struct {
	// Mu serializes maintainers, so a batch is staged, logged, committed and
	// checkpointed without a later writer overwriting a newer version with a
	// stale one. It is never held by the answer path.
	Mu sync.Mutex
	// walRecords counts delta-log records appended since the last checkpoint
	// (guarded by Mu); at the medium's cadence the durable artifact is
	// rewritten and the log truncated.
	walRecords int
}

// Maint implements DeltaDataset for every type that embeds a Maintenance.
func (m *Maintenance) Maint() *Maintenance { return m }

// DeltaDataset is the registry's mutation seam: a dataset that can maintain
// Π(D ⊕ ∆D) in place through its own scheme's ApplyDelta — a Store, plain or
// sharded, whose layout routes the deltas. The durability protocol around
// the two hooks is ApplyDeltas'; the recovery protocol is Registry.Recover's.
type DeltaDataset interface {
	Dataset
	// Stage applies the batch, in order, to a private copy of the served
	// state through its scheme's ApplyDelta and prepares the
	// answerer(s) of the result, touching nothing a query can observe. ctx is
	// checked before each delta — deltas are the cancellation granularity, a
	// single delta application is never torn. On success it returns the
	// commit: one atomic pointer store that publishes the staged state, whole,
	// at the given version, so a query observes the old Π or the new one,
	// never a mix, and never waits for either. A staged Π the scheme will
	// not Prepare is refused like a malformed delta, and so is every batch
	// when the scheme has no ApplyDelta: nothing is committed. Called with
	// Maint().Mu held.
	Stage(ctx context.Context, deltas [][]byte) (commit func(version uint64), err error)
	// Checkpoint writes the committed state under dir as the durable
	// artifact a restart loads, atomically: the previous artifact stays
	// loadable until the new one is complete. Called with Maint().Mu held,
	// or on a dataset no other goroutine has seen yet.
	Checkpoint(fsys FS, dir string) error
	// Maint returns the dataset's maintenance state (embed a Maintenance).
	Maint() *Maintenance
}

// ApplyDeltas maintains ds under a batch of deltas, atomically — every
// delta commits and the version grows by len(deltas), or nothing changes —
// and returns the version the batch committed at.
//
// With a persistent medium the protocol is write-ahead: the staged batch is
// appended to the dataset's delta log — CRC-framed and fsynced — before any
// served state changes, so the durable state is never behind one a query
// has observed. The append is the commit point: a failure there aborts the
// batch with nothing applied (*PersistError); once the record is durable
// the batch commits unconditionally. On the medium's cadence the committed
// state is then checkpointed and the log truncated; a checkpoint failure is
// counted and retried by the next batch — the log stays authoritative and a
// restart replays it. ctx bounds the batch up to the commit point.
//
// Staging and all I/O run under the maintenance mutex only, so concurrent
// queries never wait on maintenance work. Registry.ApplyDelta is the
// catalog-level entry point; it supplies the medium (nil or zero = memory
// only).
func ApplyDeltas(ctx context.Context, ds DeltaDataset, deltas [][]byte, med *Medium) (uint64, error) {
	id := ds.DatasetID()
	if med.persistent() && id == "" {
		return ds.Version(), fmt.Errorf("store: cannot persist deltas for a dataset with no ID")
	}
	// An empty batch is a no-op, never a log record or a checkpoint.
	if len(deltas) == 0 {
		return ds.Version(), nil
	}
	m := ds.Maint()
	m.Mu.Lock()
	defer m.Mu.Unlock()
	// Mu is the only writer seam, so the version cannot move under us.
	old := ds.Version()
	applyStart := obs.Start()
	commit, err := ds.Stage(ctx, deltas)
	if err != nil {
		return old, err
	}
	obsPatchApply.Since(applyStart)
	if err := ctx.Err(); err != nil {
		return old, fmt.Errorf("store: %w (nothing applied)", err)
	}
	version := old + uint64(len(deltas))
	if !med.persistent() {
		commit(version)
		return version, nil
	}
	fsys := med.fs()
	appendStart := obs.Start()
	if err := AppendLogRecord(fsys, LogPath(med.Dir, id), old, deltas); err != nil {
		return old, &PersistError{Err: fmt.Errorf("store: log delta batch: %w (nothing applied)", err)}
	}
	obsLogAppend.Since(appendStart)
	m.walRecords++
	commit(version)
	if m.walRecords >= med.checkpointEvery() {
		persistStart := obs.Start()
		if err := checkpoint(ds, fsys, med.Dir); err != nil {
			obsCheckpointFails.Inc()
		} else {
			m.walRecords = 0
			obsPatchPersist.Since(persistStart)
		}
	}
	return version, nil
}

// checkpoint folds the committed state into the durable artifact and
// truncates the delta log. The artifact write is the checkpoint's commit,
// after which every log record is at or below the artifact's version and
// the log is dead weight; a crash between the two steps leaves a stale log
// whose records replay as no-ops. Save-then-remove, never the reverse:
// losing the log before the artifact holds its records would lose
// acknowledged batches.
func checkpoint(ds DeltaDataset, fsys FS, dir string) error {
	if err := ds.Checkpoint(fsys, dir); err != nil {
		return err
	}
	return RemoveLog(fsys, LogPath(dir, ds.DatasetID()))
}

// replayLog applies the delta-log tail to a freshly loaded (or rebuilt)
// dataset. Records wholly at or below the dataset's version are already
// checkpointed and skip; the record starting exactly at it applies
// (memory-only — the log already holds it durably); a gap or straddle means
// an acknowledged batch vanished (lying fsync, foreign truncation) and
// errors rather than silently resuming behind acknowledged state. A
// structurally corrupt log (foreign magic, or a CRC-valid record whose body
// does not parse — hostility, not a torn crash) is unrecoverable either
// way: its bytes are quarantined for forensics and the checkpoint is
// served, rather than wedging the dataset. After a non-empty replay the
// dataset checkpoints; a failure there is not fatal — the log stays
// authoritative and the next restart replays again.
func (r *Registry) replayLog(ds DeltaDataset) error {
	fsys, id := r.med.fs(), ds.DatasetID()
	logPath := LogPath(r.med.Dir, id)
	records, err := ReadLog(fsys, logPath)
	if err != nil {
		var ce *CorruptArtifactError
		if errors.As(err, &ce) {
			r.quarantineArtifact(fsys, logPath, id)
			return nil
		}
		return &PersistError{Err: err}
	}
	if len(records) == 0 {
		return nil
	}
	replayStart := obs.Start()
	replayed := 0
	for i, rec := range records {
		v := ds.Version()
		end := rec.FromVersion + uint64(len(rec.Deltas))
		if end <= v {
			continue // fully inside the checkpoint
		}
		if rec.FromVersion != v {
			return fmt.Errorf("replay log %s: record %d covers versions [%d,%d) but the checkpoint is at %d — an acknowledged batch is missing",
				logPath, i, rec.FromVersion, end, v)
		}
		if _, err := ApplyDeltas(context.Background(), ds, rec.Deltas, nil); err != nil {
			return fmt.Errorf("replay log %s: record %d: %w", logPath, i, err)
		}
		replayed++
		r.replayCount.Add(1)
		obsLogReplayedTotal.Inc()
	}
	obsLogReplay.Since(replayStart)
	// Fold the replayed state into a checkpoint, or drop a log that was
	// entirely stale.
	if replayed > 0 {
		err = checkpoint(ds, fsys, r.med.Dir)
	} else {
		err = RemoveLog(fsys, logPath)
	}
	if err != nil {
		obsCheckpointFails.Inc()
	}
	return nil
}

// rebuildAttempts bounds the jittered-backoff retry loops around transient
// read errors on the load path and persistence I/O on the
// quarantine-and-heal rebuild path.
const rebuildAttempts = 3

// rebuildBackoff sleeps before retry attempt (1-based), with ±50%
// jitter so concurrent rebuilds don't hammer a recovering medium in
// lockstep: 5ms, 10ms, 20ms… before jitter.
func rebuildBackoff(attempt int) {
	base := 5 * time.Millisecond << (attempt - 1)
	time.Sleep(time.Duration(float64(base) * (0.5 + rand.Float64())))
}

// transient reports whether a load error may clear on a retry: anything but
// a missing, stale or corrupt artifact, none of which gets better by
// reading it again.
func transient(err error) bool {
	var ce *CorruptArtifactError
	return err != nil && !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, ErrStale) && !errors.As(err, &ce)
}

// Recover produces the dataset for one first-time registration of id, the
// skeleton every dataset kind's registration runs inside its one build:
// reload the persisted artifact when it is this registration's, otherwise
// rebuild from source and persist the result — and never come back behind
// an acknowledged PATCH silently.
//
// load reads and validates the artifact under (fsys, dir): it returns
// ErrStale for an intact artifact of a different registration, a
// *CorruptArtifactError for one that fails structural validation, and any
// other error for I/O trouble, which is retried with jittered backoff. build
// preprocesses from source and persists nothing. The outcomes:
//
//   - loaded: the delta log's tail — acknowledged batches a crash left
//     between a durable append and the checkpoint — is replayed on top, so
//     the restart resumes at the exact acknowledged version;
//   - absent (fs.ErrNotExist) or stale (ErrStale): rebuild, checkpoint, and
//     drop any delta log — its records apply to a Π that no longer exists;
//   - still unreadable after the retries: the registration fails with the
//     read error and no file is touched, exactly as for a delta log that
//     cannot be read — the artifact and its log may hold acknowledged
//     batches, so they wait for a medium that reads. Both, and a first
//     checkpoint that cannot be written, are the medium's failures, not the
//     request's: a *PersistError;
//   - corrupt: the artifact at ce.Path is renamed aside (*.quarantine, kept
//     for forensics), the dataset rebuilt and checkpointed (tolerating a
//     still-flaky medium with the same backoff), and the surviving log —
//     acknowledged batches for this same data, starting at the rebuilt
//     version 0 — replayed instead of discarded.
//
// PreprocessCount and LoadCount move by the dataset's ShardCount.
func (r *Registry) Recover(id string, load func(fsys FS, dir string) (DeltaDataset, error), build func() (DeltaDataset, error)) (DeltaDataset, error) {
	fsys, dir := r.med.fs(), r.med.Dir
	quarantined := false
	if r.med.persistent() {
		ds, err := load(fsys, dir)
		for attempt := 1; transient(err) && attempt < rebuildAttempts; attempt++ {
			rebuildBackoff(attempt)
			ds, err = load(fsys, dir)
		}
		if err == nil {
			r.loadCount.Add(int64(ds.ShardCount()))
			obsSnapshotLoadTotal.Add(int64(ds.ShardCount()))
			if err := r.replayLog(ds); err != nil {
				return nil, fmt.Errorf("store: register %q: %w", id, err)
			}
			return ds, nil
		}
		if transient(err) {
			// Unreadable is not absent: rebuilding here would overwrite an
			// artifact and drop a log that may hold acknowledged batches.
			return nil, &PersistError{Err: fmt.Errorf("store: register %q: %w", id, err)}
		}
		var ce *CorruptArtifactError
		if errors.As(err, &ce) {
			r.quarantineArtifact(fsys, ce.Path, id)
			quarantined = true
		}
	}
	ds, err := build()
	if err != nil {
		return nil, err
	}
	r.preprocessCount.Add(int64(ds.ShardCount()))
	obsPreprocessTotal.Add(int64(ds.ShardCount()))
	if !r.med.persistent() {
		return ds, nil
	}
	saveStart := obs.Start()
	err = ds.Checkpoint(fsys, dir)
	for attempt := 1; err != nil && quarantined && attempt < rebuildAttempts; attempt++ {
		rebuildBackoff(attempt)
		err = ds.Checkpoint(fsys, dir)
	}
	if err != nil {
		return nil, &PersistError{Err: err}
	}
	obsSnapshotSave.Since(saveStart)
	if quarantined {
		err = r.replayLog(ds)
	} else {
		err = RemoveLog(fsys, LogPath(dir, id))
	}
	if err != nil {
		return nil, fmt.Errorf("store: register %q: %w", id, err)
	}
	return ds, nil
}
