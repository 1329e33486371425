package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// FuzzPadPairRoundTrip checks the Lemma 2 padding is lossless: any (d, q)
// encodes to a string UnpadPair splits back into exactly (d, q).
func FuzzPadPairRoundTrip(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte("d"), []byte(""))
	f.Add([]byte(""), []byte("q"))
	f.Add([]byte("data with @ inside"), []byte("query@too"))
	f.Add(bytes.Repeat([]byte{0xFF}, 300), []byte{0x80, 0x00})

	f.Fuzz(func(t *testing.T, d, q []byte) {
		gd, gq, err := UnpadPair(PadPair(d, q))
		if err != nil {
			t.Fatalf("round trip errored: %v", err)
		}
		if !bytes.Equal(gd, d) || !bytes.Equal(gq, q) {
			t.Fatalf("round trip changed the pair: (%x,%x) -> (%x,%x)", d, q, gd, gq)
		}
	})
}

// FuzzUnpadPair feeds the pair decoder arbitrary bytes: corrupt or
// truncated inputs must error, never panic, and any accepted split must
// itself survive a PadPair round trip.
func FuzzUnpadPair(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(PadPair([]byte("d"), []byte("q")))
	f.Add(PadPair(nil, nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // huge length prefix
	f.Add([]byte{0x05, 'a'})                                                        // first length overruns
	valid := PadPair([]byte("data"), []byte("query"))
	f.Add(valid[:len(valid)-1])                        // truncated second component
	f.Add(append(append([]byte(nil), valid...), 0xAA)) // trailing garbage

	f.Fuzz(func(t *testing.T, x []byte) {
		d, q, err := UnpadPair(x)
		if err != nil {
			return
		}
		gd, gq, err := UnpadPair(PadPair(d, q))
		if err != nil {
			t.Fatalf("accepted split does not re-encode: %v", err)
		}
		if !bytes.Equal(gd, d) || !bytes.Equal(gq, q) {
			t.Fatalf("accepted split changed on re-encode: (%x,%x) -> (%x,%x)", d, q, gd, gq)
		}
	})
}

// referenceDecodeUint64 is DecodeUint64Into as the binary.Uvarint loop it
// reads inline: the values and error text the fast form must keep.
func referenceDecodeUint64(x []byte, out []uint64) error {
	off := 0
	for i := range out {
		v, k := binary.Uvarint(x[off:])
		if k <= 0 {
			return fmt.Errorf("core: corrupt uint at %d", off)
		}
		off += k
		out[i] = v
	}
	if off != len(x) {
		return fmt.Errorf("core: %d trailing bytes", len(x)-off)
	}
	return nil
}

// FuzzDecodeUint64 holds DecodeUint64Into to the binary.Uvarint loop for
// counts 0–4: the same values, or the same error text — truncated values,
// trailing bytes, non-minimal encodings and overflow past ten bytes alike.
func FuzzDecodeUint64(f *testing.F) {
	for _, x := range [][]byte{
		{},
		{0x00},
		{0x7f, 0x80, 0x01},
		{0x80, 0x00},                   // non-minimal zero
		{0x80, 0x80, 0x00},             // non-minimal, three bytes
		{0xff, 0x7f, 0xff, 0xff, 0x03}, // two bytes, then three
		{0x80},                         // truncated
		{0x05, 0x06, 0x07},             // trailing byte for count 2
		EncodeUint64(1<<63, 42),
		EncodeUint64(^uint64(0)),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},       // overflows in the tenth byte
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // eleven bytes
		EncodeUint64(4095, 17), // a node pair of the closure mix
	} {
		for count := range uint8(5) {
			f.Add(x, count)
		}
	}
	f.Fuzz(func(t *testing.T, x []byte, count uint8) {
		want, got := make([]uint64, count%5), make([]uint64, count%5)
		werr, gerr := referenceDecodeUint64(x, want), DecodeUint64Into(x, got)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("DecodeUint64Into(%x, %d): error %v, the Uvarint loop %v", x, len(got), gerr, werr)
		}
		if werr == nil && !slices.Equal(got, want) {
			t.Fatalf("DecodeUint64Into(%x, %d) = %v, the Uvarint loop %v", x, len(got), got, want)
		}
	})
}
