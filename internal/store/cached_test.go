package store

// Unit pins for the cache-fronted dataset wrapper that need controllable
// version behavior — the cross-scheme differential lives in
// internal/server/cache_test.go.

import (
	"context"
	"sync/atomic"
	"testing"

	"pitract/internal/cache"
)

// scriptedDataset is a Dataset stub with a controllable version and
// scripted verdicts, for racing the wrapper against "maintenance".
type scriptedDataset struct {
	version atomic.Uint64
	// onAsk and onBatch run inside Ask / AskBatch before answering — the
	// hooks a test uses to commit a "delta" between the wrapper's admission
	// and the answer. Every verdict is simply "version > 0", labelled with
	// the version read after the hook, so pre- and post-delta worlds are
	// distinguishable.
	onAsk, onBatch func()
}

func (d *scriptedDataset) DatasetID() string        { return "scripted" }
func (d *scriptedDataset) SchemeName() string       { return "scripted/scheme" }
func (d *scriptedDataset) DataDigest() DataChecksum { return DataChecksum{} }
func (d *scriptedDataset) PrepBytes() int           { return 0 }
func (d *scriptedDataset) SnapshotBytes() int       { return 0 }
func (d *scriptedDataset) ShardCount() int          { return 1 }
func (d *scriptedDataset) WasLoaded() bool          { return false }
func (d *scriptedDataset) Version() uint64          { return d.version.Load() }
func (d *scriptedDataset) CanDegrade() bool         { return false }
func (d *scriptedDataset) RetryPrepare() error      { return nil }
func (d *scriptedDataset) Ask(ctx context.Context, q []byte, mode Mode) (Verdict, error) {
	if d.onAsk != nil {
		d.onAsk()
	}
	v := d.version.Load()
	return Verdict{Answer: v > 0, Version: v}, nil
}
func (d *scriptedDataset) AskBatch(ctx context.Context, queries [][]byte, parallelism int, mode Mode) (Verdicts, error) {
	if d.onBatch != nil {
		d.onBatch()
	}
	v := d.version.Load()
	out := make([]bool, len(queries))
	for i := range out {
		out[i] = v > 0
	}
	return Verdicts{Answers: out, Version: v}, nil
}
func (d *scriptedDataset) Answer(q []byte) (bool, error) {
	v, err := d.Ask(context.Background(), q, Exact)
	return v.Answer, err
}
func (d *scriptedDataset) AnswerBatch(queries [][]byte, parallelism int) ([]bool, error) {
	vs, err := d.AskBatch(context.Background(), queries, parallelism, Exact)
	return vs.Answers, err
}

// TestCachedBatchConsistentAcrossMidBatchCommit pins the batch
// consistency contract: when a delta commits between cache admission and
// the miss sub-batch, the wrapper must not mix old-version hits with
// new-version miss answers — it falls back to one uncached batch, whose
// verdicts all come from a single Π.
func TestCachedBatchConsistentAcrossMidBatchCommit(t *testing.T) {
	ds := &scriptedDataset{}
	c := cache.New(1 << 20)
	cd := NewCachedDataset(ds, c)

	q1, q2 := []byte{1}, []byte{2}
	// Warm q1 at version 0 (verdict false).
	if got, err := cd.Answer(q1); err != nil || got {
		t.Fatalf("warm answer = (%v, %v), want (false, nil)", got, err)
	}
	// The "delta" commits while the miss sub-batch (q2) is in flight.
	ds.onBatch = func() { ds.version.Store(1) }
	got, err := cd.AnswerBatch([][]byte{q1, q2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != got[1] {
		t.Fatalf("mixed-version batch: %v — verdicts must come from one Π", got)
	}
	if !got[0] {
		t.Fatalf("batch = %v, want the post-commit verdicts", got)
	}
	// And nothing was filled: the sub-batch's version-1 verdict for q2 is
	// under neither the admission (v0) key nor a v1 key — the cache still
	// holds exactly the one entry the warm-up put there.
	for _, version := range []uint64{0, 1} {
		if _, ok := c.Lookup("scripted", version, q2); ok {
			t.Fatalf("fallback path filled the cache under version %d despite the version change", version)
		}
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("cache holds %d entries, want only the warm-up's", st.Entries)
	}
}

// TestCachedBatchFillsAndServes pins the happy path: misses answered once
// and cached, hits served without touching the dataset.
func TestCachedBatchFillsAndServes(t *testing.T) {
	ds := &scriptedDataset{}
	ds.version.Store(1)
	c := cache.New(1 << 20)
	cd := NewCachedDataset(ds, c)
	qs := [][]byte{{1}, {2}, {3}}
	for pass := 0; pass < 2; pass++ {
		got, err := cd.AnswerBatch(qs, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if !v {
				t.Fatalf("pass %d query %d: got false", pass, i)
			}
		}
	}
	st := c.Stats()
	if st.Misses != 3 || st.Hits != 3 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 3 misses then 3 hits", st)
	}
}
