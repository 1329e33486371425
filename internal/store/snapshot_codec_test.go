package store

// Tests for the v3 compressed prep section: the delta-varint codec must
// fire exactly on sorted-key artifacts, shrink them, and round-trip
// byte-identically; unsorted or odd-length artifacts ship raw; the
// never-deployed v2 and v1 layouts are unknown formats (quarantined and
// rebuilt, not decoded); hostile sections fail closed.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"pitract/internal/core"
	"pitract/internal/schemes"
)

// sortedPrep builds the canonical sorted-key artifact shape: non-decreasing
// 8-byte big-endian records — what point/range selection and list
// membership persist.
func sortedPrep(keys []int64) []byte {
	pd, err := schemes.PointSelectionScheme().Preprocess(schemes.RelationFromKeys(keys))
	if err != nil {
		panic(err)
	}
	return pd
}

func TestPrepSectionDeltaVarintFires(t *testing.T) {
	prep := sortedPrep([]int64{5, 1, 9, 3, 3, 200, -40, 1 << 30})
	sec := encodePrepSection(prep)
	if sec[0] != prepCodecDeltaVarint {
		t.Fatalf("sorted-key artifact shipped with codec %d, want delta-varint", sec[0])
	}
	if len(sec) >= len(prep)+1 {
		t.Fatalf("delta-varint section (%d bytes) did not shrink the %d-byte artifact", len(sec), len(prep))
	}
	got, err := decodePrepSection(sec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prep) {
		t.Fatal("delta-varint round trip changed the artifact")
	}
}

func TestPrepSectionRawFallback(t *testing.T) {
	cases := map[string][]byte{
		"empty":      nil,
		"odd-length": {1, 2, 3},
		"descending": append(binary.BigEndian.AppendUint64(nil, 9), binary.BigEndian.AppendUint64(nil, 3)...),
		// Eight 0xff bytes: one record, but its varint encoding (10 bytes +
		// count) is larger than raw, so raw must win.
		"incompressible": bytes.Repeat([]byte{0xff}, 8),
	}
	for name, prep := range cases {
		t.Run(name, func(t *testing.T) {
			sec := encodePrepSection(prep)
			if sec[0] != prepCodecRaw {
				t.Fatalf("codec %d, want raw", sec[0])
			}
			got, err := decodePrepSection(sec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, prep) {
				t.Fatal("raw round trip changed the artifact")
			}
		})
	}
}

// TestSnapshotV3ShrinksSortedKeys pins the headline effect at the snapshot
// level: a sorted-key store's snapshot is strictly smaller than the same
// snapshot under the v2 (raw prep) layout.
func TestSnapshotV3ShrinksSortedKeys(t *testing.T) {
	keys := make([]int64, 512)
	for i := range keys {
		keys[i] = int64(i * 3)
	}
	s := &Snapshot{SchemeName: "point-selection/sorted-keys", Prep: sortedPrep(keys)}
	enc := EncodeSnapshot(s)
	rawSize := len(enc) - len(encodePrepSection(s.Prep)) + 1 + len(s.Prep)
	if len(enc) >= rawSize {
		t.Fatalf("v3 snapshot is %d bytes, raw layout would be %d", len(enc), rawSize)
	}
	got, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Prep, s.Prep) {
		t.Fatal("compressed snapshot round trip changed Π")
	}
}

// The pre-v3 magics. No deployed artifact carries them; they survive here
// only as characteristic "well-formed file of another format" inputs.
var (
	snapshotMagicV2 = []byte("PITRACTS\x02")
	snapshotMagicV1 = []byte("PITRACTS\x01")
)

// encodeLegacySnapshot renders the v1/v2 layouts (raw prep, no codec byte):
// CRC-valid files the current decoder must refuse by version byte alone.
func encodeLegacySnapshot(s *Snapshot, magic []byte, withVersion bool) []byte {
	header := core.PadPair([]byte(s.SchemeName), []byte(s.Notes))
	meta := append([]byte(nil), s.DataSum[:]...)
	if withVersion {
		meta = binary.AppendUvarint(meta, s.Version)
	}
	payload := core.PadPair(header, core.PadPair(meta, s.Prep))
	out := append([]byte(nil), magic...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// TestSnapshotLegacyVersionsAreUnknownFormats pins the deletion of the
// v1/v2 decoders: an old magic is an unknown format version — a
// CorruptArtifactError on load — so a registry that finds one quarantines
// the file and rebuilds Π from source instead of serving (or wedging on)
// it.
func TestSnapshotLegacyVersionsAreUnknownFormats(t *testing.T) {
	scheme := schemes.PointSelectionScheme()
	data := schemes.RelationFromKeys([]int64{2, 4, 6})
	legacy := &Snapshot{SchemeName: scheme.Name(), DataSum: SumData(data), Version: 7, Prep: sortedPrep([]int64{2, 4, 6})}
	for name, enc := range map[string][]byte{
		"v2": encodeLegacySnapshot(legacy, snapshotMagicV2, true),
		"v1": encodeLegacySnapshot(legacy, snapshotMagicV1, false),
	} {
		t.Run(name, func(t *testing.T) {
			if s, err := DecodeSnapshot(enc); err == nil || !strings.Contains(err.Error(), "unknown snapshot format version") {
				t.Fatalf("decode = (%+v, %v), want an unknown-format-version error", s, err)
			}
			dir := t.TempDir()
			path := SnapshotPath(dir, "d")
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				t.Fatal(err)
			}
			var ce *CorruptArtifactError
			if _, err := LoadFS(OSFS, path); !errors.As(err, &ce) {
				t.Fatalf("load = %v, want a CorruptArtifactError", err)
			}
			reg := NewRegistry(dir)
			st, err := reg.Register("d", scheme, data)
			if err != nil {
				t.Fatalf("register over an old-format snapshot: %v", err)
			}
			if st.WasLoaded() || st.Version() != 0 || reg.PreprocessCount() != 1 || reg.QuarantineCount() != 1 {
				t.Fatalf("loaded=%v version=%d preprocess=%d quarantines=%d, want a rebuild from source with one quarantine",
					st.WasLoaded(), st.Version(), reg.PreprocessCount(), reg.QuarantineCount())
			}
			if got, err := st.Answer(schemes.PointQuery(4)); err != nil || !got {
				t.Fatalf("rebuilt dataset: key 4 = (%v, %v), want (true, nil)", got, err)
			}
			if kept, err := os.ReadFile(QuarantinePath(path)); err != nil || !bytes.Equal(kept, enc) {
				t.Fatalf("quarantined artifact = (%d bytes, %v), want the old-format bytes verbatim", len(kept), err)
			}
			// The rebuild rewrote a current-format snapshot: the next
			// restart is a clean load.
			if st2, err := NewRegistry(dir).Register("d", scheme, data); err != nil || !st2.WasLoaded() {
				t.Fatalf("restart after the rebuild: loaded=%v err=%v", st2 != nil && st2.WasLoaded(), err)
			}
		})
	}
}

// TestDecodePrepSectionHostile pins fail-closed decoding: every malformed
// section errors without panicking and without allocating from attacker-
// controlled counts.
func TestDecodePrepSectionHostile(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"unknown-codec":  {9, 1, 2, 3},
		"no-count":       {prepCodecDeltaVarint},
		"zero-count":     append([]byte{prepCodecDeltaVarint}, binary.AppendUvarint(nil, 0)...),
		"count-lie":      append([]byte{prepCodecDeltaVarint}, binary.AppendUvarint(nil, 1<<40)...),
		"truncated-body": append(append([]byte{prepCodecDeltaVarint}, binary.AppendUvarint(nil, 3)...), 1, 2),
		"overflow": append(append(append([]byte{prepCodecDeltaVarint},
			binary.AppendUvarint(nil, 2)...),
			binary.AppendUvarint(nil, 1<<63)...),
			binary.AppendUvarint(nil, 1<<63)...),
		"trailing-bytes": append(append(append([]byte{prepCodecDeltaVarint},
			binary.AppendUvarint(nil, 1)...),
			binary.AppendUvarint(nil, 5)...),
			0xee),
		"bad-varint": append([]byte{prepCodecDeltaVarint}, bytes.Repeat([]byte{0x80}, 11)...),
	}
	for name, sec := range cases {
		t.Run(name, func(t *testing.T) {
			if got, err := decodePrepSection(sec); err == nil {
				t.Fatalf("hostile section decoded to %d bytes", len(got))
			}
		})
	}
}
