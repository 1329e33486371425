// Package core implements the paper's formal framework: languages of pairs
// over Σ*, factorizations Υ = (π1, π2, ρ) of decision problems,
// Π-tractability schemes (PTIME preprocessing + NC answering, Definition 1),
// NC-factor reductions and F-reductions (Definitions 4, 5, 7), the Lemma 2
// padding composition, the Lemma 3 scheme transport, and an empirical
// growth classifier that checks measured query costs against the polylog
// bound the definitions demand.
//
// Everything here is executable mathematics: each definition from the paper
// maps to a type, each lemma to a function whose statement is enforced by
// tests rather than by proof.
package core

import (
	"encoding/binary"
	"fmt"
)

// PadPair encodes the pair (d, q) into a single self-delimiting string.
// It is the executable form of the paper's "@ padding" from the proof of
// Lemma 2: σ1(x) = π1(x)@π2(x), where @ never occurs elsewhere. A
// length-prefixed layout gives the same unambiguous-split guarantee without
// reserving an alphabet symbol.
func PadPair(d, q []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(d)))
	b = append(b, d...)
	b = binary.AppendUvarint(b, uint64(len(q)))
	return append(b, q...)
}

// UnpadPair splits a string produced by PadPair back into (d, q).
func UnpadPair(x []byte) (d, q []byte, err error) {
	n, k := binary.Uvarint(x)
	if k <= 0 || uint64(len(x)-k) < n {
		return nil, nil, fmt.Errorf("core: corrupt pair padding (first component)")
	}
	d = x[k : k+int(n)]
	rest := x[k+int(n):]
	m, k2 := binary.Uvarint(rest)
	if k2 <= 0 || uint64(len(rest)-k2) != m {
		return nil, nil, fmt.Errorf("core: corrupt pair padding (second component)")
	}
	q = rest[k2 : k2+int(m)]
	return d, q, nil
}

// EncodeUint64 renders v as a self-delimiting byte string; used for numeric
// query parts such as node pairs.
func EncodeUint64(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// DecodeUint64 parses exactly want unsigned integers.
func DecodeUint64(x []byte, want int) ([]uint64, error) {
	out := make([]uint64, want)
	if err := DecodeUint64Into(x, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeUint64Into parses exactly len(out) unsigned integers into out — the
// slice-free form the query decoders on the probe path use (a fixed-size
// array on the caller's stack, so decoding a query allocates nothing).
//
// One- and two-byte values — a node id below 2¹⁴ — are read inline, as
// graph.Decode reads its arcs; the first longer or malformed value hands the
// rest to decodeUint64Rest, so the loop a node pair takes makes no call. The
// values and the errors are the binary.Uvarint loop's (FuzzDecodeUint64),
// non-minimal encodings included.
func DecodeUint64Into(x []byte, out []uint64) error {
	off := 0
	for i := range out {
		if off < len(x) && x[off] < 0x80 {
			out[i], off = uint64(x[off]), off+1
		} else if off+1 < len(x) && x[off+1] < 0x80 {
			out[i], off = uint64(x[off]&0x7f)|uint64(x[off+1])<<7, off+2
		} else {
			return decodeUint64Rest(x, out[i:], off)
		}
	}
	if off != len(x) {
		return trailingBytes(len(x) - off)
	}
	return nil
}

// decodeUint64Rest is DecodeUint64Into from byte off of x on, through
// binary.Uvarint. It and trailingBytes stay out of line, so the loop above
// carries no fmt call.
//
//go:noinline
func decodeUint64Rest(x []byte, out []uint64, off int) error {
	for i := range out {
		v, k := binary.Uvarint(x[off:])
		if k <= 0 {
			return fmt.Errorf("core: corrupt uint at %d", off)
		}
		off += k
		out[i] = v
	}
	if off != len(x) {
		return trailingBytes(len(x) - off)
	}
	return nil
}

//go:noinline
func trailingBytes(n int) error { return fmt.Errorf("core: %d trailing bytes", n) }
