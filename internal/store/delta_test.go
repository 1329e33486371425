package store

// The mutation-path contracts a plain store pins from inside the package:
// a failing batch is atomic, unmaintainable schemes and empty batches are
// clean refusals, and the snapshot keeps the maintenance version. The
// maintained-vs-rebuilt differential, the PATCH-vs-query races and the crash
// tables run every layout, plain among them, in internal/shard.

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"pitract/internal/schemes"
)

// TestApplyDeltaBatchIsAtomic pins the all-or-nothing contract: a batch
// whose last delta is hostile must leave the served Π, the version, and
// the on-disk snapshot untouched.
func TestApplyDeltaBatchIsAtomic(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(dir)
	data := schemes.RelationFromKeys([]int64{2, 4, 6})
	st, err := reg.Register("d", schemes.PointSelectionScheme(), data)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := st.View()
	snapBefore, err := os.ReadFile(DatasetPath(dir, "d"))
	if err != nil {
		t.Fatal(err)
	}

	_, err = reg.ApplyDelta("d", [][]byte{schemes.KeysDelta([]int64{9}), []byte{0xff, 0xff}})
	if err == nil {
		t.Fatal("hostile batch applied without error")
	}
	after, v := st.View()
	if v != 0 {
		t.Fatalf("version %d after failed batch, want 0", v)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed batch mutated the served Π")
	}
	if ok, _ := st.Answer(schemes.PointQuery(9)); ok {
		t.Fatal("partially applied delta is visible")
	}
	snapAfter, err := os.ReadFile(DatasetPath(dir, "d"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBefore, snapAfter) {
		t.Fatal("failed batch rewrote the snapshot")
	}
	if reg.DeltaCount() != 0 {
		t.Fatalf("delta counter %d after failed batch, want 0", reg.DeltaCount())
	}
}

// TestApplyDeltaErrors pins the clean-refusal paths: unknown ids are
// NotFoundError, schemes without incremental forms and empty batches are
// plain conflicts, and none of them disturb the registry entry.
func TestApplyDeltaErrors(t *testing.T) {
	reg := NewRegistry("")
	if _, err := reg.ApplyDelta("ghost", [][]byte{{1}}); err == nil {
		t.Fatal("unknown dataset accepted")
	} else {
		var nf *NotFoundError
		if !errors.As(err, &nf) {
			t.Fatalf("unknown dataset error %v is not a NotFoundError", err)
		}
	}

	data := schemes.RelationFromKeys([]int64{2, 4})
	if _, err := reg.Register("scan", schemes.PointSelectionScanScheme(), data); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ApplyDelta("scan", [][]byte{schemes.KeysDelta([]int64{8})}); err == nil {
		t.Fatal("scheme without incremental form accepted a delta")
	}
	if _, err := reg.Register("pt", schemes.PointSelectionScheme(), data); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ApplyDelta("pt", nil); err == nil {
		t.Fatal("empty delta batch accepted")
	}
	st, _ := reg.Get("pt")
	if st.Version() != 0 {
		t.Fatalf("refused deltas bumped the version to %d", st.Version())
	}
	if ok, _ := st.Answer(schemes.PointQuery(2)); !ok {
		t.Fatal("registry entry disturbed by refused deltas")
	}
}

// TestSnapshotVersionRoundTrip pins that the maintenance version survives
// encode/decode. (The pre-delta v1 layout is an unknown format now; see
// TestSnapshotLegacyVersionsAreUnknownFormats.)
func TestSnapshotVersionRoundTrip(t *testing.T) {
	s := &Snapshot{SchemeName: "s", DataSum: SumData([]byte("d")), Version: 7, Prep: []byte{1, 2, 3}}
	got, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 || got.SchemeName != "s" || !bytes.Equal(got.Prep, s.Prep) || got.DataSum != s.DataSum {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}
