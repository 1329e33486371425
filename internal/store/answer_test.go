package store

// Pins for the answer seam itself: the cache wrapper receives ctx like
// every other dataset, a cache entry is a verdict of exactly its keyed
// version, and the seam costs nothing on the paths that must stay free.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pitract/internal/cache"
	"pitract/internal/core"
	"pitract/internal/schemes"
)

// TestCachedBatchStopsProbingAfterDeadline pins that the cache wrapper
// does not drop the context: a cached batch whose exact probes stall stops
// at the deadline — the miss sub-batch checks ctx before every probe and
// runs on the caller's goroutine, so no probe starts after the
// DeadlineError has been returned.
func TestCachedBatchStopsProbingAfterDeadline(t *testing.T) {
	const probe = 10 * time.Millisecond
	var calls atomic.Int64
	sch := &core.Scheme{
		SchemeName: "test/slow",
		Preprocess: func(d []byte) ([]byte, error) { return append([]byte(nil), d...), nil },
		Prepare: core.ProbeInPlace(func(pd, q []byte) (bool, error) {
			calls.Add(1)
			time.Sleep(probe)
			return true, nil
		}),
	}
	ds := NewCachedDataset(&Store{ID: "d", Scheme: sch, Prep: []byte{1}}, cache.New(1<<20))
	queries := make([][]byte, 40) // all misses: 400ms of probes
	for i := range queries {
		queries[i] = []byte{byte(i)}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 35*time.Millisecond)
	defer cancel()
	_, _, err := AnswerBatchWithin(ctx, ds, queries, 1)
	atReturn := calls.Load()
	var de *DeadlineError
	if !errors.As(err, &de) || de.Op != "batch" {
		t.Fatalf("stalled cached batch returned %v, want a batch DeadlineError", err)
	}
	time.Sleep(15 * probe) // a batch that kept its work would start ~15 more probes
	if after := calls.Load() - atReturn; after > 0 {
		t.Fatalf("%d exact probes started after the DeadlineError returned (%d before): the batch outlived its request",
			after, atReturn)
	}
}

// TestCachedFillIsExactlyItsKeyedVersion is the deterministic pin for the
// cache's version contract: when a delta commits between the wrapper's
// admission (key version 0) and the underlying answer (computed at version
// 1), the verdict must not be filed under the version-0 key — the caller
// gets the verdict labelled with the version it was computed at, and no
// entry is left behind under either version.
func TestCachedFillIsExactlyItsKeyedVersion(t *testing.T) {
	ds := &scriptedDataset{}
	c := cache.New(1 << 20)
	cd := NewCachedDataset(ds, c)
	var once atomic.Bool
	ds.onAsk = func() {
		if once.CompareAndSwap(false, true) {
			ds.version.Store(1) // the "delta" commits after admission
		}
	}
	q := []byte{7}
	v, err := cd.Ask(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Answer || v.Version != 1 {
		t.Fatalf("verdict = %+v, want the version-1 verdict labelled version 1", v)
	}
	if got, ok := c.Lookup("scripted", 0, q); ok {
		t.Fatalf("a verdict computed at version 1 was cached under the version-0 key (%v)", got)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("cache holds %d entries after a fill that raced a commit, want 0", st.Entries)
	}
	// With the version stable the same query fills and then hits, labelled
	// with its key's version.
	for i := 0; i < 2; i++ {
		if v, err := cd.Ask(context.Background(), q); err != nil || !v.Answer || v.Version != 1 {
			t.Fatalf("stable ask %d = (%+v, %v), want (true at version 1, nil)", i, v, err)
		}
	}
	if st := c.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want one entry and one hit", st)
	}
}

// TestAnswerSeamAllocs pins what the seam may cost. A background context
// must stay the zero-overhead path — Store.Answer and an unarmed
// AnswerWithin allocate nothing; a cached hit pays only the cache key; an
// armed AnswerWithin asks on the caller's goroutine and allocates nothing
// either.
func TestAnswerSeamAllocs(t *testing.T) {
	sch := schemes.PointSelectionScheme()
	st := &Store{ID: "d", Scheme: sch, Prep: mustPreprocess(t, sch, schemes.RelationFromKeys([]int64{2, 4, 6}))}
	st.Warm()
	q := schemes.PointQuery(4)
	cached := NewCachedDataset(st, cache.New(1<<20))
	if _, err := cached.Answer(q); err != nil {
		t.Fatal(err)
	}
	armed, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Store.Answer", 0, func() { st.Answer(q) }},
		{"AnswerWithin(background)", 0, func() { AnswerWithin(context.Background(), st, q) }},
		{"AnswerWithin(nil)", 0, func() { AnswerWithin(nil, st, q) }}, //nolint:staticcheck // nil ctx is part of the contract
		{"cached hit", 2, func() { cached.Answer(q) }},
		{"AnswerWithin(armed)", 0, func() { AnswerWithin(armed, st, q) }},
	} {
		if got := testing.AllocsPerRun(200, tc.fn); got > tc.max {
			t.Errorf("%s: %v allocs/op, want <= %v", tc.name, got, tc.max)
		}
	}
}
