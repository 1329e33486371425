// Package faultfs is an in-memory, fault-injecting implementation of the
// persistence layer's file-system seam (store.FS). It models exactly the
// distinction journaled storage lives and dies by: the *live* namespace
// (what reads observe now) versus the *durable* namespace (what survives a
// crash). Content becomes durable on File.Sync; directory entries —
// creations, renames, removals — become durable on SyncDir; everything
// else is lost at a crash.
//
// The crash-matrix suites drive it three ways:
//
//   - CrashAfterOps(n) kills the medium at the nth mutating operation: the
//     op does not execute (except a torn Write, whose configured prefix
//     reaches the durable image — the torn-tail crash signature a delta
//     log must absorb), and every later operation fails with ErrCrashed.
//     Restart then reopens the durable image as the new live state, which
//     is precisely what a process restart sees.
//   - FailAfterWrites(n) makes the (n+1)th Write return an injected error
//     without crashing — the I/O-failure path (PersistError, HTTP 500);
//     FailReads(n) does the same to the next n ReadFile calls — the medium
//     that cannot be read at restart, for a while or for good.
//   - LieOnSync makes Sync acknowledge without making content durable —
//     the lying-fsync hardware that turns an acknowledged commit into a
//     replay-time gap.
//
// Trace records every operation (name + path), so a suite can first dry-run
// a scenario to count its operations, then sweep crashAt over every index —
// a kill point at every boundary of the commit protocol, not just the ones
// someone thought to name.
package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"pitract/internal/store"
)

// ErrCrashed is returned by every operation after the injected crash point.
var ErrCrashed = errors.New("faultfs: medium crashed")

// ErrInjected is returned by a Write that hit the FailAfterWrites budget
// and by a ReadFile inside the FailReads budget.
var ErrInjected = errors.New("faultfs: injected failure")

// node is one live file: its current content and the prefix of it known to
// be durable for this inode (advanced by Sync; carried across Rename).
type node struct {
	data   []byte
	synced []byte
}

// FS is the fault-injecting medium. The zero value is not usable; call New.
// It implements store.FS.
type FS struct {
	mu sync.Mutex

	live    map[string]*node  // live namespace: path -> file
	durable map[string][]byte // crash image: path -> content
	dirs    map[string]bool   // existing directories (durable once created)

	ops     int      // executed mutating operations
	trace   []string // "op path" per executed mutating operation
	crashAt int      // crash when ops reaches this count; <0 = never
	crashed bool

	writes     int // executed Write calls
	failWrites int // inject an error on the (failWrites+1)th Write; <0 = never
	failReads  int // inject an error on this many more ReadFile calls

	tornBytes int // bytes of a crashing Write that reach the durable image
	lieOnSync bool
}

// CorruptByte flips one byte of path in both the live and durable
// images — the corrupt-at-rest artifact (bit rot, foreign scribble)
// that quarantine-and-heal exists for. Reports whether the path existed
// and was long enough.
func (f *FS) CorruptByte(path string, off int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := filepath.Clean(path)
	ok := false
	if n, exists := f.live[p]; exists && off < len(n.data) {
		n.data[off] ^= 0xFF
		ok = true
	}
	if b, exists := f.durable[p]; exists && off < len(b) {
		b[off] ^= 0xFF
		ok = true
	}
	return ok
}

// New returns an empty medium with no faults armed.
func New() *FS {
	return &FS{
		live:       map[string]*node{},
		durable:    map[string][]byte{},
		dirs:       map[string]bool{"/": true, ".": true},
		crashAt:    -1,
		failWrites: -1,
	}
}

// CrashAfterOps arms a crash at the nth (0-based) mutating operation: that
// operation does not execute — except a Write, whose configured torn
// prefix reaches the durable image — and every operation after it returns
// ErrCrashed. n < 0 disarms.
func (f *FS) CrashAfterOps(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = n
}

// SetTornBytes sets how many bytes of a crashing Write reach the durable
// image (0 = the write vanishes entirely; clamped to the write's length).
func (f *FS) SetTornBytes(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tornBytes = k
}

// FailAfterWrites makes the (n+1)th Write call fail with ErrInjected,
// without crashing the medium. n < 0 disarms.
func (f *FS) FailAfterWrites(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWrites = n
}

// FailReads makes the next n ReadFile calls fail with ErrInjected, without
// crashing the medium — the read-side twin of FailAfterWrites. n <= 0
// disarms.
func (f *FS) FailReads(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failReads = n
}

// LieOnSync makes File.Sync and SyncDir acknowledge without making
// anything durable — the lying-fsync fault.
func (f *FS) LieOnSync(lie bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lieOnSync = lie
}

// Crashed reports whether the armed crash point has fired.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Ops reports how many mutating operations have executed.
func (f *FS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Trace returns a copy of the executed-operation log ("op path" entries).
func (f *FS) Trace() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.trace...)
}

// Restart simulates a process restart after a crash (or a clean stop): the
// durable image becomes the live namespace, the crash flag clears, and the
// operation counter and trace reset. Armed fault budgets are disarmed; the
// test re-arms what the next phase needs.
func (f *FS) Restart() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.live = make(map[string]*node, len(f.durable))
	for p, b := range f.durable {
		c := append([]byte(nil), b...)
		f.live[p] = &node{data: c, synced: append([]byte(nil), c...)}
	}
	f.crashed = false
	f.crashAt = -1
	f.failWrites = -1
	f.failReads = 0
	f.ops = 0
	f.writes = 0
	f.trace = f.trace[:0]
}

// DurableBytes returns the durable image of path (what a restart would
// read), and whether the entry exists at all.
func (f *FS) DurableBytes(path string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.durable[filepath.Clean(path)]
	return append([]byte(nil), b...), ok
}

// step gates one mutating operation: records it, fires an armed crash, and
// refuses everything after the crash. It reports whether the operation
// should execute. Callers hold f.mu.
func (f *FS) step(op, path string) (bool, error) {
	if f.crashed {
		return false, fmt.Errorf("%s %s: %w", op, path, ErrCrashed)
	}
	f.trace = append(f.trace, op+" "+path)
	if f.crashAt >= 0 && f.ops == f.crashAt {
		f.crashed = true
		f.ops++
		return false, fmt.Errorf("%s %s: %w", op, path, ErrCrashed)
	}
	f.ops++
	return true, nil
}

// ReadFile implements store.FS (reads are not counted as operations — they
// have no durable effect — but a crashed medium refuses them too, and an
// armed FailReads budget fails them with ErrInjected).
func (f *FS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, fmt.Errorf("read %s: %w", name, ErrCrashed)
	}
	if f.failReads > 0 {
		f.failReads--
		return nil, fmt.Errorf("read %s: %w", name, ErrInjected)
	}
	n, ok := f.live[filepath.Clean(name)]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), n.data...), nil
}

// ReadDirNames lists the live entry names (not paths) of a directory, sorted
// — for the tests that inspect what the medium holds; store.FS has no listing.
func (f *FS) ReadDirNames(name string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, fmt.Errorf("readdir %s: %w", name, ErrCrashed)
	}
	dir := filepath.Clean(name)
	if !f.dirs[dir] {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	seen := map[string]bool{}
	for p := range f.live {
		if filepath.Dir(p) == dir {
			seen[filepath.Base(p)] = true
		}
	}
	for d := range f.dirs {
		if d != dir && filepath.Dir(d) == dir {
			seen[filepath.Base(d)] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Size implements store.FS.
func (f *FS) Size(name string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, fmt.Errorf("stat %s: %w", name, ErrCrashed)
	}
	n, ok := f.live[filepath.Clean(name)]
	if !ok {
		return 0, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	return int64(len(n.data)), nil
}

// MkdirAll implements store.FS. Directories are durable once created — the
// suites crash file and entry operations, not directory creation.
func (f *FS) MkdirAll(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ok, err := f.step("mkdir", name)
	if !ok {
		return err
	}
	p := filepath.Clean(name)
	for p != "/" && p != "." && p != "" {
		f.dirs[p] = true
		p = filepath.Dir(p)
	}
	return nil
}

// CreateTemp implements store.FS.
func (f *FS) CreateTemp(dir, pattern string) (store.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := filepath.Clean(dir)
	ok, err := f.step("create", d+"/"+pattern)
	if !ok {
		return nil, err
	}
	if !f.dirs[d] {
		return nil, &fs.PathError{Op: "createtemp", Path: dir, Err: fs.ErrNotExist}
	}
	for i := 0; ; i++ {
		name := strings.Replace(pattern, "*", fmt.Sprintf("%06d", len(f.trace)*1000+i), 1)
		path := filepath.Join(d, name)
		if _, exists := f.live[path]; !exists {
			f.live[path] = &node{}
			return &file{fs: f, path: path}, nil
		}
	}
}

// OpenAppend implements store.FS.
func (f *FS) OpenAppend(name string) (store.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	path := filepath.Clean(name)
	ok, err := f.step("open", path)
	if !ok {
		return nil, err
	}
	if _, exists := f.live[path]; !exists {
		if !f.dirs[filepath.Dir(path)] {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		f.live[path] = &node{}
	}
	return &file{fs: f, path: path}, nil
}

// Rename implements store.FS: the live entry moves (with its synced inode
// content); the durable namespace does not change until SyncDir — the loss
// window the WriteFileAtomicFS directory fsync exists to close.
func (f *FS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	op, np := filepath.Clean(oldpath), filepath.Clean(newpath)
	ok, err := f.step("rename", op+" -> "+np)
	if !ok {
		return err
	}
	n, exists := f.live[op]
	if !exists {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(f.live, op)
	f.live[np] = n
	return nil
}

// Remove implements store.FS; removal of the durable entry waits for
// SyncDir, like every other entry change.
func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	path := filepath.Clean(name)
	ok, err := f.step("remove", path)
	if !ok {
		return err
	}
	if _, exists := f.live[path]; !exists {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(f.live, path)
	return nil
}

// SyncDir implements store.FS: the directory's durable entry table becomes
// its live one — new entries appear (with their synced inode content),
// removed or renamed-away entries disappear. A lying fsync acknowledges
// without doing any of that.
func (f *FS) SyncDir(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir := filepath.Clean(name)
	ok, err := f.step("syncdir", dir)
	if !ok {
		return err
	}
	if !f.dirs[dir] {
		return &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	if f.lieOnSync {
		return nil
	}
	for p := range f.durable {
		if filepath.Dir(p) == dir {
			if _, live := f.live[p]; !live {
				delete(f.durable, p)
			}
		}
	}
	for p, n := range f.live {
		if filepath.Dir(p) == dir {
			f.durable[p] = append([]byte(nil), n.synced...)
		}
	}
	return nil
}

// file is one open handle.
type file struct {
	fs   *FS
	path string
}

// Write implements store.File. A crash here is the torn-write case: the
// configured prefix of b reaches the durable image when the file's entry
// is already durable (an existing log file), modelling an append cut short
// by power loss.
func (fl *file) Write(b []byte) (int, error) {
	f := fl.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, fmt.Errorf("write %s: %w", fl.path, ErrCrashed)
	}
	if f.failWrites >= 0 && f.writes >= f.failWrites {
		f.trace = append(f.trace, "write(fail) "+fl.path)
		return 0, fmt.Errorf("write %s: %w", fl.path, ErrInjected)
	}
	ok, err := f.step("write", fl.path)
	if !ok {
		// Torn write: a prefix of this write lands on the platter even
		// though the call never returned.
		if n, exists := f.live[fl.path]; exists {
			k := f.tornBytes
			if k > len(b) {
				k = len(b)
			}
			if k > 0 {
				n.synced = append(n.synced, b[:k]...)
				n.data = append(n.data, b[:k]...)
				if _, durable := f.durable[fl.path]; durable {
					f.durable[fl.path] = append([]byte(nil), n.synced...)
				}
			}
		}
		return 0, err
	}
	f.writes++
	n, exists := f.live[fl.path]
	if !exists {
		return 0, &fs.PathError{Op: "write", Path: fl.path, Err: fs.ErrNotExist}
	}
	n.data = append(n.data, b...)
	return len(b), nil
}

// Sync implements store.File: the inode's content becomes durable, and —
// when the entry itself is already durable — the crash image updates too.
// A lying fsync acknowledges without either.
func (fl *file) Sync() error {
	f := fl.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	ok, err := f.step("sync", fl.path)
	if !ok {
		return err
	}
	if f.lieOnSync {
		return nil
	}
	n, exists := f.live[fl.path]
	if !exists {
		return &fs.PathError{Op: "sync", Path: fl.path, Err: fs.ErrNotExist}
	}
	n.synced = append([]byte(nil), n.data...)
	if _, durable := f.durable[fl.path]; durable {
		f.durable[fl.path] = append([]byte(nil), n.synced...)
	}
	return nil
}

// Close implements store.File (not a counted operation: it has no durable
// effect in this model, and counting it would put kill points on no-ops).
func (fl *file) Close() error {
	f := fl.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return fmt.Errorf("close %s: %w", fl.path, ErrCrashed)
	}
	return nil
}

// Name implements store.File.
func (fl *file) Name() string { return fl.path }

var _ store.FS = (*FS)(nil)
