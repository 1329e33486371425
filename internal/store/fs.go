// FS is the file-system seam of the persistence layer. Every byte the
// store and shard packages put on (or read from) disk flows through this
// interface, so the crash-injection harness (internal/store/faultfs) can
// substitute an in-memory medium with op-counted, controllable durability
// — fail the Nth write, tear the final record, lie on fsync, lose a rename
// whose directory was never synced — and the crash-matrix suites can kill
// the process model at every boundary of the commit protocol.
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is one writable file handle: what the atomic-write and log-append
// paths need, nothing more.
type File interface {
	io.Writer
	// Sync flushes written content to the durable medium.
	Sync() error
	Close() error
	// Name reports the path the file was opened under.
	Name() string
}

// FS abstracts the file operations the persistence layer performs. OSFS is
// the real disk; faultfs.FS is the in-memory crash-injection medium.
type FS interface {
	ReadFile(name string) ([]byte, error)
	// Size reports a file's length in bytes (an error when absent).
	Size(name string) (int64, error)
	MkdirAll(name string) error
	// CreateTemp creates a uniquely named file in dir; pattern as in
	// os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// OpenAppend opens name for appending, creating it when absent.
	OpenAppend(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory, making its entry table — creations,
	// renames, removals — durable. A rename without it can vanish on
	// crash even though the renamed file's *content* was synced.
	SyncDir(name string) error
}

// OSFS is the real operating-system file system.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Size(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (osFS) MkdirAll(name string) error { return os.MkdirAll(name, 0o755) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Medium bundles where and how maintained artifacts persist: a snapshot
// directory, the file system behind it, and the checkpoint cadence of the
// write-ahead delta log. The zero Medium (or a nil pointer) is volatile —
// nothing is persisted.
type Medium struct {
	// Dir is the snapshot/log directory; "" disables persistence.
	Dir string
	// FS is the file layer; nil means OSFS.
	FS FS
	// CheckpointEvery is how many log records may accumulate before the
	// snapshot (or shard manifest) is rewritten and the log truncated.
	// Values < 1 mean 1: checkpoint on every PATCH, so the log exists only
	// as the crash-recovery journal of the in-flight batch.
	CheckpointEvery int
}

// DiskMedium is the common case: persist under dir on the real disk,
// checkpointing every batch.
func DiskMedium(dir string) *Medium { return &Medium{Dir: dir} }

// fs returns the file layer, defaulting to the real disk.
func (m *Medium) fs() FS {
	if m == nil || m.FS == nil {
		return OSFS
	}
	return m.FS
}

// persistent reports whether the medium persists anything at all.
func (m *Medium) persistent() bool { return m != nil && m.Dir != "" }

// checkpointEvery normalizes the checkpoint cadence.
func (m *Medium) checkpointEvery() int {
	if m == nil || m.CheckpointEvery < 1 {
		return 1
	}
	return m.CheckpointEvery
}

// WriteFileAtomicFS writes b to path atomically on fsys: temp file in the
// target directory, fsync, rename, directory fsync. A crash mid-write
// leaves either the old file or none — never a torn one — and the closing
// SyncDir makes the rename itself durable: without it a crash shortly
// after a "successful" write could resurface the old file (or none), i.e.
// a version behind answers already served. It is the durability primitive
// behind SaveFS and the sharded Checkpoint.
func WriteFileAtomicFS(fsys FS, path string, b []byte) error {
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	tmp, err := fsys.CreateTemp(dir, ".pitract-atomic-*")
	if err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("store: write %s: sync dir: %w", path, err)
	}
	return nil
}
