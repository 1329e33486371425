package store

import (
	"bytes"
	"testing"
)

// FuzzDecodeSnapshot feeds the snapshot decoder arbitrary bytes: it must
// either return an error or a snapshot whose re-encoding decodes to the
// same fields — and it must never panic. The seed corpus (valid snapshots
// plus characteristic corruptions) runs on every plain `go test`;
// `go test -fuzz=FuzzDecodeSnapshot ./internal/store` explores further.
func FuzzDecodeSnapshot(f *testing.F) {
	valid := EncodeSnapshot(&Snapshot{
		SchemeName: "point-selection/sorted-keys",
		Notes:      "O(|D| log |D|) / O(log |D|)",
		DataSum:    SumData([]byte("data")),
		Prep:       []byte{1, 2, 3},
	})
	f.Add(valid)
	f.Add(EncodeSnapshot(&Snapshot{}))
	f.Add([]byte{})
	f.Add([]byte("PITRACTS"))
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	f.Add(append(append([]byte(nil), valid...), 0xFF))

	// A snapshot whose Π is a sorted key file, and CRC-valid files of the
	// earlier layouts (unknown format versions now).
	sorted := sortedPrep([]int64{1, 2, 3, 500, 1 << 40})
	f.Add(EncodeSnapshot(&Snapshot{SchemeName: "point-selection/sorted-keys", Prep: sorted}))
	f.Add(encodeLegacySnapshot(&Snapshot{SchemeName: "point-selection/sorted-keys", Version: 3, Prep: sorted}, snapshotMagicV3))
	f.Add(encodeLegacySnapshot(&Snapshot{SchemeName: "point-selection/sorted-keys", Version: 3, Prep: sorted}, snapshotMagicV2))
	f.Add(encodeLegacySnapshot(&Snapshot{SchemeName: "legacy", Prep: []byte{1, 2, 3}}, snapshotMagicV1))
	// The snapshot frames any Π: a maintained one far along, and 8-byte key
	// records (whose layout only the scheme's readers refuse).
	f.Add(EncodeSnapshot(&Snapshot{SchemeName: "point-selection/sorted-keys", Version: 1 << 40, Prep: sorted}))
	f.Add(EncodeSnapshot(&Snapshot{SchemeName: "point-selection/sorted-keys", Prep: []byte{0x80, 0, 0, 0, 0, 0, 0, 1, 0x80, 0, 0, 0, 0, 0, 0, 9}}))

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSnapshot(b)
		if err != nil {
			if s != nil {
				t.Fatal("error with non-nil snapshot")
			}
			return
		}
		re, err := DecodeSnapshot(EncodeSnapshot(s))
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot failed to decode: %v", err)
		}
		if re.SchemeName != s.SchemeName || re.Notes != s.Notes ||
			re.DataSum != s.DataSum || !bytes.Equal(re.Prep, s.Prep) {
			t.Fatalf("round trip changed fields: %+v vs %+v", re, s)
		}
	})
}
