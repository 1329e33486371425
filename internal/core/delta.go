package core

import "fmt"

// Delta kinds. The paper's §1 justification (3) writes updates as an
// abstract ⊕; PR 4 implemented only insertions, where ∆D is a batch of new
// elements. Full dynamism needs retractions too, so a delta carries a kind:
//
//   - DeltaInsert: add the payload's elements where absent — a present
//     element is a no-op, so an insert is idempotent, a retried PATCH is
//     safe, and maintained Π stays byte-equal to Preprocess(D ⊕ ∆D);
//   - DeltaDelete: retract the payload's elements.
//
// Wire format: every delta, of either kind, is
//
//	deltaTagMagic (4 bytes) ‖ kind (1 byte) ‖ payload
//
// and a delta without the header is refused. The magic {0xFF, 0xFF, 0xFF,
// 0x00} cannot prefix a pre-PR 25 untagged insert: both of its families
// open with a binary.AppendUvarint value (a key count or a vertex id), Go
// always emits minimal uvarints, and a minimal multi-byte uvarint never has
// a 0x00 terminal byte — so such bytes are refused loudly, never misread.
type DeltaKind uint8

const (
	// DeltaInsert adds elements where absent.
	DeltaInsert DeltaKind = 0
	// DeltaDelete retracts elements.
	DeltaDelete DeltaKind = 1
)

// String names the kind for errors and stats.
func (k DeltaKind) String() string {
	switch k {
	case DeltaInsert:
		return "insert"
	case DeltaDelete:
		return "delete"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// deltaTagMagic opens every delta; see DeltaKind.
var deltaTagMagic = [4]byte{0xFF, 0xFF, 0xFF, 0x00}

// TagDelta wraps a scheme delta payload with its kind.
func TagDelta(kind DeltaKind, payload []byte) []byte {
	out := make([]byte, 0, len(deltaTagMagic)+1+len(payload))
	out = append(out, deltaTagMagic[:]...)
	out = append(out, byte(kind))
	return append(out, payload...)
}

// DeltaParts splits a delta into its kind and scheme payload. Bytes without
// the header and an unknown kind byte are errors, never a guess.
func DeltaParts(delta []byte) (DeltaKind, []byte, error) {
	if len(delta) < len(deltaTagMagic)+1 || [4]byte(delta) != deltaTagMagic {
		return 0, nil, fmt.Errorf("core: untagged delta: no % X kind header", deltaTagMagic)
	}
	kind := DeltaKind(delta[len(deltaTagMagic)])
	if kind > DeltaDelete {
		return 0, nil, fmt.Errorf("core: unknown delta kind %d", uint8(kind))
	}
	return kind, delta[len(deltaTagMagic)+1:], nil
}

// DeltaKindOf reports a delta's kind without splitting it (stats counters,
// taxonomies). Malformed deltas report as inserts — the applying scheme is
// the authority that rejects them.
func DeltaKindOf(delta []byte) DeltaKind {
	kind, _, err := DeltaParts(delta)
	if err != nil {
		return DeltaInsert
	}
	return kind
}
