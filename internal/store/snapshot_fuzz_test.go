package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"pitract/internal/core"
)

// snapshotWithPrepSection frames an arbitrary (possibly hostile) prep
// section in an otherwise valid v3 snapshot — CRC intact, so the decoder
// reaches decodePrepSection instead of bouncing at the checksum.
func snapshotWithPrepSection(sec []byte) []byte {
	var sum DataChecksum
	header := core.PadPair([]byte("s"), []byte("n"))
	meta := binary.AppendUvarint(append([]byte(nil), sum[:]...), 0)
	payload := core.PadPair(header, core.PadPair(meta, sec))
	out := append([]byte(nil), snapshotMagic...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

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

	// v3 compressed-section seeds: a snapshot whose Π is a sorted-key
	// artifact (triggers the delta-varint codec), CRC-valid files of the
	// never-deployed v2/v1 layouts (unknown format versions now), and
	// snapshots whose prep sections carry hostile codec bytes or record
	// counts.
	sorted := sortedPrep([]int64{1, 2, 3, 500, 1 << 40})
	compressed := EncodeSnapshot(&Snapshot{SchemeName: "point-selection/sorted-keys", Prep: sorted})
	f.Add(compressed)
	f.Add(encodeLegacySnapshot(&Snapshot{SchemeName: "point-selection/sorted-keys", Version: 3, Prep: sorted}, snapshotMagicV2, true))
	f.Add(encodeLegacySnapshot(&Snapshot{SchemeName: "legacy", Prep: []byte{1, 2, 3}}, snapshotMagicV1, false))
	f.Add(snapshotWithPrepSection([]byte{99, 1, 2, 3}))                                          // unknown codec
	f.Add(snapshotWithPrepSection(append([]byte{prepCodecDeltaVarint}, 0xff, 0xff, 0xff, 0x7f))) // count lie
	f.Add(snapshotWithPrepSection([]byte{prepCodecDeltaVarint, 2, 5}))                           // truncated body

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
