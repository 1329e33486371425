package core

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestDeltaEnvelopeRoundTrip pins the delta wire format: both kinds carry
// the 5-byte header, round-trip through TagDelta/DeltaParts, and survive
// DeltaKindOf.
func TestDeltaEnvelopeRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 0xFF, 0}
	for _, kind := range []DeltaKind{DeltaInsert, DeltaDelete} {
		tagged := TagDelta(kind, payload)
		if want := append([]byte{0xFF, 0xFF, 0xFF, 0x00, byte(kind)}, payload...); !bytes.Equal(tagged, want) {
			t.Fatalf("%v: TagDelta = %x, want %x", kind, tagged, want)
		}
		gotKind, gotPayload, err := DeltaParts(tagged)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if gotKind != kind || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("%v round trip: got %v %x", kind, gotKind, gotPayload)
		}
		if DeltaKindOf(tagged) != kind {
			t.Fatalf("DeltaKindOf(%v) = %v", kind, DeltaKindOf(tagged))
		}
	}
}

// TestDeltaPartsUnknownKind: a tagged delta with an unknown kind byte — the
// retired upsert (2) among them — is an error, never a guess, and
// DeltaKindOf defers to the applying scheme by reporting insert.
func TestDeltaPartsUnknownKind(t *testing.T) {
	for _, kind := range []byte{2, 7} {
		hostile := []byte{0xFF, 0xFF, 0xFF, 0x00, kind, 1, 2}
		if _, _, err := DeltaParts(hostile); err == nil {
			t.Fatalf("kind byte %d accepted", kind)
		}
		if got := DeltaKindOf(hostile); got != DeltaInsert {
			t.Fatalf("DeltaKindOf(kind %d) = %v, want insert", kind, got)
		}
	}
}

// encodeList is schemes.EncodeList, which core cannot import: a key batch,
// the payload of a pre-PR 25 untagged insert.
func encodeList(keys ...int64) []byte {
	b := binary.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		b = binary.AppendVarint(b, k)
	}
	return b
}

// FuzzDeltaParts states the grammar: any byte string is either exactly one
// ⟨kind ∈ {insert, delete}, payload⟩ that TagDelta re-encodes to the input,
// or an error. Every pre-PR 25 insert — an untagged key list (a count
// uvarint and its entries) or node pair — is refused: a minimal uvarint
// never puts 0x00 after three continuation bytes, so none opens with the
// header.
func FuzzDeltaParts(f *testing.F) {
	refused := [][]byte{
		nil,
		{0xFF, 0xFF, 0xFF, 0x00}, // header without its kind byte
		{0xFF, 0xFF, 0xFF, 0x00, 0x02, 0x01, 0x04}, // the retired upsert header
		encodeList(),
		encodeList(4, 7),
		encodeList(make([]int64, 1<<21)...),   // count 80 80 80 01
		encodeList(make([]int64, 1<<21-1)...), // count FF FF 7F
		EncodeUint64(1, 2),                    // "ARI=", the old insert of edge 1→2
		EncodeUint64(1<<28-1, 0),              // FF FF FF 7F 00
		EncodeUint64(1<<63, 1<<63),
	}
	for _, b := range refused {
		if kind, _, err := DeltaParts(b); err == nil {
			f.Fatalf("%.16x… accepted as %v", b, kind)
		}
		if len(b) < 64 {
			f.Add(b, uint64(len(b)), uint64(0), uint64(1))
		}
	}
	f.Add(TagDelta(DeltaInsert, encodeList(4)), uint64(1<<21), uint64(1<<28-1), uint64(0))
	f.Add(TagDelta(DeltaDelete, EncodeUint64(0, 1)), uint64(1<<35-1), uint64(1<<63), uint64(7))

	f.Fuzz(func(t *testing.T, b []byte, count, u, v uint64) {
		kind, payload, err := DeltaParts(b)
		if err == nil {
			if kind != DeltaInsert && kind != DeltaDelete {
				t.Fatalf("%x: kind %v", b, kind)
			}
			if got := TagDelta(kind, payload); !bytes.Equal(got, b) {
				t.Fatalf("%x: parts re-encode to %x", b, got)
			}
		}
		// DeltaParts reads no further than five bytes, so a count header
		// followed by any bytes stands for every list of that many keys.
		for _, old := range [][]byte{append(binary.AppendUvarint(nil, count), b...), EncodeUint64(u, v)} {
			if kind, _, err := DeltaParts(old); err == nil {
				t.Fatalf("pre-PR 25 insert %x accepted as %v", old, kind)
			}
		}
	})
}
