package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pitract/internal/schemes"
)

func testSnapshot() *Snapshot {
	return &Snapshot{
		SchemeName: "point-selection/sorted-keys",
		Notes:      "O(|D| log |D|) / O(log |D|)",
		DataSum:    SumData([]byte("the raw data")),
		Prep:       []byte{0, 1, 2, 250, 251, 252, 253, 254, 255},
	}
}

func TestSnapshotRoundTripBytesIdentical(t *testing.T) {
	s := testSnapshot()
	enc := EncodeSnapshot(s)
	got, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.SchemeName != s.SchemeName || got.Notes != s.Notes ||
		got.DataSum != s.DataSum || !bytes.Equal(got.Prep, s.Prep) {
		t.Fatalf("round trip changed fields: got %+v want %+v", got, s)
	}
	if !bytes.Equal(EncodeSnapshot(got), enc) {
		t.Fatal("re-encoding a decoded snapshot is not byte-identical")
	}
}

func TestSnapshotSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "dir", "d.pitract")
	s := testSnapshot()
	if err := SaveFS(OSFS, path, s); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := LoadFS(OSFS, path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.SchemeName != s.SchemeName || !bytes.Equal(got.Prep, s.Prep) || got.DataSum != s.DataSum {
		t.Fatalf("loaded snapshot differs: %+v vs %+v", got, s)
	}
}

// TestSnapshotCorruptionRejected flips, truncates and garbles an encoded
// snapshot every way the format must catch: each must produce an error, and
// none may panic.
func TestSnapshotCorruptionRejected(t *testing.T) {
	enc := EncodeSnapshot(testSnapshot())

	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeSnapshot(nil); err == nil {
			t.Fatal("empty input accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(enc); cut += 3 {
			if _, err := DecodeSnapshot(enc[:cut]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", cut)
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		for i := 0; i < len(enc); i++ {
			bad := append([]byte(nil), enc...)
			bad[i] ^= 0x40
			if _, err := DecodeSnapshot(bad); err == nil {
				t.Fatalf("bit flip at byte %d accepted", i)
			}
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[len(snapshotMagic)-1] = 0x7f
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Fatal("wrong format version accepted")
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := DecodeSnapshot(append(append([]byte(nil), enc...), 0xEE)); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
}

func TestLoadCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.pitract")
	if err := SaveFS(OSFS, path, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFS(OSFS, path); err == nil {
		t.Fatal("corrupt file loaded without error")
	}
}

// TestSnapshotBytesMemoized pins the /v1/stats footprint: SnapshotBytes
// reports the exact encoded size, a PATCH changes it, and a scrape of an
// unchanged ⟨Π, version⟩ does not run the encoder (an encode allocates the
// whole artifact; the memoized read allocates nothing).
func TestSnapshotBytesMemoized(t *testing.T) {
	reg := NewRegistry("")
	keys := make([]int64, 4096)
	for i := range keys {
		keys[i] = int64(3 * i)
	}
	st, err := reg.Register("d", schemes.PointSelectionScheme(), schemes.RelationFromKeys(keys))
	if err != nil {
		t.Fatal(err)
	}
	exact := func() int { return len(EncodeSnapshot(st.Snapshot())) }
	before := st.SnapshotBytes()
	if before != exact() {
		t.Fatalf("SnapshotBytes = %d, encoded snapshot is %d bytes", before, exact())
	}
	if allocs := testing.AllocsPerRun(20, func() { st.SnapshotBytes() }); allocs != 0 {
		t.Fatalf("a repeated scrape allocates %.0f times: it re-encodes Π", allocs)
	}
	if _, err := reg.ApplyDelta("d", [][]byte{schemes.KeysDelta([]int64{1, 2, 4, 5})}); err != nil {
		t.Fatal(err)
	}
	after := st.SnapshotBytes()
	if after == before || after != exact() {
		t.Fatalf("after a PATCH SnapshotBytes = %d (was %d), encoded snapshot is %d bytes", after, before, exact())
	}
}
