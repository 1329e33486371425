package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pitract/internal/core"
	"pitract/internal/schemes"
)

func testSnapshot() *Snapshot {
	return &Snapshot{
		SchemeName: "point-selection/sorted-keys",
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
	if got.SchemeName != s.SchemeName ||
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
	exact := func() int {
		file := plainFile(st)
		if !bytes.Equal(file, st.encode(st.Committed())) {
			t.Fatal("the checkpoint's encoder and EncodeManifest disagree")
		}
		return len(file)
	}
	before := st.SnapshotBytes()
	if before != exact() {
		t.Fatalf("SnapshotBytes = %d, the encoded file is %d bytes", before, exact())
	}
	if allocs := testing.AllocsPerRun(20, func() { st.SnapshotBytes() }); allocs != 0 {
		t.Fatalf("a repeated scrape allocates %.0f times: it re-encodes Π", allocs)
	}
	if _, err := reg.ApplyDelta("d", [][]byte{schemes.KeysDelta([]int64{1, 2, 4, 5})}); err != nil {
		t.Fatal(err)
	}
	after := st.SnapshotBytes()
	if after == before || after != exact() {
		t.Fatalf("after a PATCH SnapshotBytes = %d (was %d), the encoded file is %d bytes", after, before, exact())
	}
}

// plainFile is a plain store's file built from the codec's parts: its one
// member's snapshot inside a manifest with no layout field and no summary.
func plainFile(st *Store) []byte {
	s := st.Snapshot()
	return EncodeManifest(&Manifest{SchemeName: s.SchemeName, DataSum: st.DataSum, Version: s.Version, Members: [][]byte{EncodeSnapshot(s)}})
}

// sortedPrep is the sorted key file Preprocess lays out for keys.
func sortedPrep(keys []int64) []byte {
	pd, err := schemes.PointSelectionScheme().Preprocess(schemes.RelationFromKeys(keys))
	if err != nil {
		panic(err)
	}
	return pd
}

// The magics of the earlier formats. No artifact in the wild carries v1 or v2;
// they survive here as characteristic "well-formed file of another format"
// inputs, with v3, whose prep section opened with a codec byte, and v4, the
// last a plain dataset's file was written in on its own.
var (
	snapshotMagicV4 = []byte("PITRACTS\x04")
	snapshotMagicV3 = []byte("PITRACTS\x03")
	snapshotMagicV2 = []byte("PITRACTS\x02")
	snapshotMagicV1 = []byte("PITRACTS\x01")
)

// encodeLegacySnapshot renders the earlier layouts: v1 (no maintenance
// version), v2, v3, whose Π section is prefixed by the codec byte (0, raw),
// and v4 — every one with the free-text notes after the scheme name. They are
// CRC-valid files the current decoder must refuse by version byte alone.
func encodeLegacySnapshot(s *Snapshot, magic []byte) []byte {
	header := core.PadPair([]byte(s.SchemeName), []byte("O(|D| log |D|) / O(log |D|)"))
	meta, prep := append([]byte(nil), s.DataSum[:]...), s.Prep
	if !bytes.Equal(magic, snapshotMagicV1) {
		meta = binary.AppendUvarint(meta, s.Version)
	}
	if bytes.Equal(magic, snapshotMagicV3) {
		prep = append([]byte{0}, prep...)
	}
	payload := core.PadPair(header, core.PadPair(meta, prep))
	out := append([]byte(nil), magic...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// TestSnapshotLegacyVersionsAreUnknownFormats pins that an earlier magic is an
// unknown format version — a CorruptArtifactError on load — so a registry
// that finds one at a dataset's path quarantines the file and rebuilds Π from
// source instead of serving (or wedging on) it. The v4 row is the plain
// dataset of a data directory written before the one file format: the
// registration's checkpoint at version 0 and a delta log of two acknowledged
// batches beside it, which the rebuild replays to the acknowledged version.
func TestSnapshotLegacyVersionsAreUnknownFormats(t *testing.T) {
	scheme := schemes.PointSelectionScheme()
	data := schemes.RelationFromKeys([]int64{2, 4, 6})
	legacy := &Snapshot{SchemeName: scheme.Name(), DataSum: SumData(data), Version: 7, Prep: sortedPrep([]int64{2, 4, 6})}
	registered := &Snapshot{SchemeName: scheme.Name(), DataSum: SumData(data), Prep: legacy.Prep}
	for _, row := range []struct {
		name  string
		enc   []byte
		log   [][][]byte
		probe map[int64]bool
	}{
		{"v4", encodeLegacySnapshot(registered, snapshotMagicV4),
			[][][]byte{{schemes.KeysDelta([]int64{8})}, {schemes.KeysDeleteDelta([]int64{2}), schemes.KeysDelta([]int64{10})}},
			map[int64]bool{2: false, 4: true, 8: true, 10: true}},
		{"v3", encodeLegacySnapshot(legacy, snapshotMagicV3), nil, map[int64]bool{2: true, 4: true}},
		{"v2", encodeLegacySnapshot(legacy, snapshotMagicV2), nil, map[int64]bool{2: true, 4: true}},
		{"v1", encodeLegacySnapshot(legacy, snapshotMagicV1), nil, map[int64]bool{2: true, 4: true}},
	} {
		t.Run(row.name, func(t *testing.T) {
			if s, err := DecodeSnapshot(row.enc); err == nil || !strings.Contains(err.Error(), "unknown snapshot format version") {
				t.Fatalf("decode = (%+v, %v), want an unknown-format-version error", s, err)
			}
			dir := t.TempDir()
			path := DatasetPath(dir, "d")
			if err := os.WriteFile(path, row.enc, 0o644); err != nil {
				t.Fatal(err)
			}
			var ce *CorruptArtifactError
			if _, err := LoadFS(OSFS, path); !errors.As(err, &ce) {
				t.Fatalf("load = %v, want a CorruptArtifactError", err)
			}
			acked := uint64(0)
			for _, batch := range row.log {
				if err := AppendLogRecord(OSFS, LogPath(dir, "d"), acked, batch); err != nil {
					t.Fatal(err)
				}
				acked += uint64(len(batch))
			}
			reg := NewRegistry(dir)
			st, err := reg.Register("d", scheme, data)
			if err != nil {
				t.Fatalf("register over an old-format snapshot: %v", err)
			}
			if st.WasLoaded() || st.Version() != acked || reg.PreprocessCount() != 1 || reg.QuarantineCount() != 1 || reg.ReplayCount() != int64(len(row.log)) {
				t.Fatalf("loaded=%v version=%d preprocess=%d quarantines=%d replays=%d, want a rebuild from source at %d with one quarantine and %d replays",
					st.WasLoaded(), st.Version(), reg.PreprocessCount(), reg.QuarantineCount(), reg.ReplayCount(), acked, len(row.log))
			}
			for k, want := range row.probe {
				if got, err := st.Answer(schemes.PointQuery(k)); err != nil || got != want {
					t.Fatalf("rebuilt dataset: key %d = (%v, %v), want (%v, nil)", k, got, err, want)
				}
			}
			if kept, err := os.ReadFile(QuarantinePath(path)); err != nil || !bytes.Equal(kept, row.enc) {
				t.Fatalf("quarantined artifact = (%d bytes, %v), want the old-format bytes verbatim", len(kept), err)
			}
			// The rebuild rewrote a current-format file and folded the log into
			// it: the next restart is a clean load at the acknowledged version.
			reg2 := NewRegistry(dir)
			if st2, err := reg2.Register("d", scheme, data); err != nil || !st2.WasLoaded() || st2.Version() != acked || reg2.ReplayCount() != 0 {
				t.Fatalf("restart after the rebuild: loaded=%v version=%d replays=%d err=%v", st2 != nil && st2.WasLoaded(), st2.Version(), reg2.ReplayCount(), err)
			}
		})
	}
}
