package faultfs

import (
	"errors"
	"io/fs"
	"testing"

	"pitract/internal/store"
)

// writeAll is a test helper: open-append, write, sync, close.
func writeAll(t *testing.T, f *FS, path string, b []byte) {
	t.Helper()
	h, err := f.OpenAppend(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if _, err := h.Write(b); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := h.Sync(); err != nil {
		t.Fatalf("sync %s: %v", path, err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

// TestDurabilityModel: content survives a restart only once Sync ran, and a
// brand-new file's entry survives only once SyncDir ran.
func TestDurabilityModel(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}

	// Entry made durable.
	writeAll(t, f, "/d/kept", []byte("payload"))
	if err := f.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	// Entry never made durable: written and synced after the last SyncDir.
	writeAll(t, f, "/d/lost", []byte("content"))
	// Written after the SyncDir but to an already-durable entry, with Sync:
	// content durability needs no further directory sync.
	h, err := f.OpenAppend("/d/kept")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("+more")); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	h.Close()
	// Written but never synced: lost on restart even though entry durable.
	h2, err := f.OpenAppend("/d/kept")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Write([]byte("+unsynced")); err != nil {
		t.Fatal(err)
	}
	h2.Close()

	f.Restart()

	if _, err := f.ReadFile("/d/lost"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("entry without SyncDir survived restart: err=%v", err)
	}
	got, err := f.ReadFile("/d/kept")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload+more" {
		t.Fatalf("durable content = %q, want %q (synced appends kept, unsynced lost)", got, "payload+more")
	}
}

// TestRenameNeedsSyncDir is the regression model for the WriteFileAtomicFS
// directory-fsync bug: a rename whose directory is never synced vanishes on
// restart — the old name is still what the durable entry table holds.
func TestRenameNeedsSyncDir(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, "/d/old", []byte("v1"))
	if err := f.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}

	if err := f.Rename("/d/old", "/d/new"); err != nil {
		t.Fatal(err)
	}
	// Live view sees the rename immediately.
	if _, err := f.ReadFile("/d/new"); err != nil {
		t.Fatalf("live read after rename: %v", err)
	}

	f.Restart()
	if _, err := f.ReadFile("/d/new"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("rename without SyncDir survived restart: err=%v", err)
	}
	if got, err := f.ReadFile("/d/old"); err != nil || string(got) != "v1" {
		t.Fatalf("old entry should survive un-synced rename: %q, %v", got, err)
	}

	// With the directory sync the rename is durable.
	if err := f.Rename("/d/old", "/d/new"); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	f.Restart()
	if got, err := f.ReadFile("/d/new"); err != nil || string(got) != "v1" {
		t.Fatalf("synced rename lost: %q, %v", got, err)
	}
	if _, err := f.ReadFile("/d/old"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("old entry should be gone after synced rename: err=%v", err)
	}
}

// TestRemoveNeedsSyncDir: a removal becomes durable only at SyncDir.
func TestRemoveNeedsSyncDir(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, "/d/x", []byte("v"))
	if err := f.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("/d/x"); err != nil {
		t.Fatal(err)
	}
	f.Restart()
	if got, err := f.ReadFile("/d/x"); err != nil || string(got) != "v" {
		t.Fatalf("un-synced removal should not be durable: %q, %v", got, err)
	}
	if err := f.Remove("/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	f.Restart()
	if _, err := f.ReadFile("/d/x"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("synced removal should be durable: err=%v", err)
	}
}

// TestCrashAfterOps: the crashing op does not execute, later ops return
// ErrCrashed, and Restart reopens exactly the durable image.
func TestCrashAfterOps(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, "/d/a", []byte("safe"))
	if err := f.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}

	f.CrashAfterOps(f.Ops()) // next mutating op crashes
	if err := f.Remove("/d/a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing op: err=%v, want ErrCrashed", err)
	}
	if !f.Crashed() {
		t.Fatal("Crashed() = false after armed crash fired")
	}
	if _, err := f.OpenAppend("/d/b"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op: err=%v, want ErrCrashed", err)
	}
	if _, err := f.ReadFile("/d/a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: err=%v, want ErrCrashed", err)
	}

	f.Restart()
	if f.Crashed() {
		t.Fatal("Crashed() should clear on Restart")
	}
	if got, err := f.ReadFile("/d/a"); err != nil || string(got) != "safe" {
		t.Fatalf("durable image after crash: %q, %v", got, err)
	}
}

// TestTornWrite: a Write at the crash point leaves its configured prefix in
// the durable image of an already-durable file — the torn log tail.
func TestTornWrite(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, "/d/log", []byte("HEAD"))
	if err := f.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}

	h, err := f.OpenAppend("/d/log")
	if err != nil {
		t.Fatal(err)
	}
	f.SetTornBytes(3)
	f.CrashAfterOps(f.Ops())
	if _, err := h.Write([]byte("RECORD")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write: err=%v, want ErrCrashed", err)
	}

	f.Restart()
	got, err := f.ReadFile("/d/log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "HEADREC" {
		t.Fatalf("torn tail = %q, want %q", got, "HEADREC")
	}
}

// TestFailAfterWrites: an exhausted write budget injects an error without
// crashing the medium; operation continues to work afterwards.
func TestFailAfterWrites(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	h, err := f.OpenAppend("/d/x")
	if err != nil {
		t.Fatal(err)
	}
	f.FailAfterWrites(1)
	if _, err := h.Write([]byte("ok")); err != nil {
		t.Fatalf("first write within budget: %v", err)
	}
	if _, err := h.Write([]byte("boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("second write: err=%v, want ErrInjected", err)
	}
	if f.Crashed() {
		t.Fatal("injected write failure must not crash the medium")
	}
	f.FailAfterWrites(-1)
	if _, err := h.Write([]byte("again")); err != nil {
		t.Fatalf("write after disarm: %v", err)
	}
	if got, _ := f.ReadFile("/d/x"); string(got) != "okagain" {
		t.Fatalf("content = %q, want %q (failed write must not land)", got, "okagain")
	}
}

// TestFailReads: exactly the next n ReadFile calls fail — present or absent
// path alike — without crashing the medium or touching content; the read
// after the budget, and every read after a Restart, succeeds.
func TestFailReads(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, "/d/x", []byte("base"))
	if err := f.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	f.FailReads(2)
	for i, name := range []string{"/d/x", "/d/absent"} {
		if _, err := f.ReadFile(name); !errors.Is(err, ErrInjected) || errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("read %d of %s: err=%v, want ErrInjected only", i, name, err)
		}
	}
	if f.Crashed() {
		t.Fatal("injected read failure must not crash the medium")
	}
	if got, err := f.ReadFile("/d/x"); err != nil || string(got) != "base" {
		t.Fatalf("read after the budget = %q, %v", got, err)
	}
	f.FailReads(5)
	f.Restart()
	if got, err := f.ReadFile("/d/x"); err != nil || string(got) != "base" {
		t.Fatalf("read after Restart = %q, %v (Restart must disarm FailReads)", got, err)
	}
}

// TestLieOnSync: an acknowledged Sync that did nothing — after restart the
// "synced" content is gone even though every call returned nil.
func TestLieOnSync(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, "/d/x", []byte("base"))
	if err := f.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}

	f.LieOnSync(true)
	h, err := f.OpenAppend("/d/x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("+ack")); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatalf("lying sync must still acknowledge: %v", err)
	}
	h.Close()

	f.Restart()
	if got, _ := f.ReadFile("/d/x"); string(got) != "base" {
		t.Fatalf("content = %q, want %q (lying fsync loses the append)", got, "base")
	}
}

// TestWriteFileAtomicFSDurable: the store's atomic writer, run over faultfs,
// is durable end-to-end — this is the integration pin for the directory
// fsync in WriteFileAtomicFS (drop the SyncDir call and this fails).
func TestWriteFileAtomicFSDurable(t *testing.T) {
	f := New()
	if err := store.WriteFileAtomicFS(f, "/data/snap.pitract", []byte("snapshot-v1")); err != nil {
		t.Fatal(err)
	}
	f.Restart()
	got, err := f.ReadFile("/data/snap.pitract")
	if err != nil {
		t.Fatalf("atomic write lost on restart (missing directory fsync?): %v", err)
	}
	if string(got) != "snapshot-v1" {
		t.Fatalf("content = %q, want %q", got, "snapshot-v1")
	}
	// Overwrite; any crash image is either v1 or v2, never torn.
	if err := store.WriteFileAtomicFS(f, "/data/snap.pitract", []byte("snapshot-v2!")); err != nil {
		t.Fatal(err)
	}
	f.Restart()
	if got, _ := f.ReadFile("/data/snap.pitract"); string(got) != "snapshot-v2!" {
		t.Fatalf("content = %q, want %q", got, "snapshot-v2!")
	}
}

// TestWriteFileAtomicFSCrashSweep: kill WriteFileAtomicFS at every single
// operation index; after every crash the durable image must hold either the
// complete old content or the complete new content — never a torn or
// missing file.
func TestWriteFileAtomicFSCrashSweep(t *testing.T) {
	// Dry run to count ops.
	dry := New()
	if err := store.WriteFileAtomicFS(dry, "/data/f.pitract", []byte("OLD")); err != nil {
		t.Fatal(err)
	}
	before := dry.Ops()
	if err := store.WriteFileAtomicFS(dry, "/data/f.pitract", []byte("NEWCONTENT")); err != nil {
		t.Fatal(err)
	}
	total := dry.Ops() - before
	if total < 5 {
		t.Fatalf("expected ≥5 ops in an atomic write, got %d (trace %v)", total, dry.Trace())
	}

	for k := 0; k < total; k++ {
		f := New()
		if err := store.WriteFileAtomicFS(f, "/data/f.pitract", []byte("OLD")); err != nil {
			t.Fatal(err)
		}
		f.SetTornBytes(4)
		f.CrashAfterOps(f.Ops() + k)
		err := store.WriteFileAtomicFS(f, "/data/f.pitract", []byte("NEWCONTENT"))
		if !f.Crashed() {
			t.Fatalf("crashAt=%d: crash did not fire (err=%v)", k, err)
		}
		f.Restart()
		got, rerr := f.ReadFile("/data/f.pitract")
		if rerr != nil {
			t.Fatalf("crashAt=%d: file missing after crash: %v", k, rerr)
		}
		if s := string(got); s != "OLD" && s != "NEWCONTENT" {
			t.Fatalf("crashAt=%d: torn content %q", k, s)
		}
	}
}

// TestTrace: operations are recorded with names and paths, so crash
// matrices can locate protocol boundaries by path suffix.
func TestTrace(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, "/d/x.pitract-log", []byte("r"))
	tr := f.Trace()
	want := []string{"mkdir /d", "open /d/x.pitract-log", "write /d/x.pitract-log", "sync /d/x.pitract-log"}
	if len(tr) != len(want) {
		t.Fatalf("trace = %v, want %v", tr, want)
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q", i, tr[i], want[i])
		}
	}
	if f.Ops() != 4 {
		t.Fatalf("Ops() = %d, want 4", f.Ops())
	}
}

// TestReadDirNames: live listing, including subdirectories.
func TestReadDirNames(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/d/sub"); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, "/d/b", []byte("1"))
	writeAll(t, f, "/d/a", []byte("2"))
	names, err := f.ReadDirNames("/d")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "sub"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	if _, err := f.ReadDirNames("/absent"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("absent dir: err=%v", err)
	}
}
