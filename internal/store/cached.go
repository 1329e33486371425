package store

import (
	"context"
	"errors"

	"pitract/internal/cache"
	"pitract/internal/obs"
)

// Cache-lookup stage histograms, split by outcome: a hit is served (or
// coalesced) from the version-keyed cache, a miss ran the underlying
// answer path and filled the cache.
var (
	obsCacheHit  = obs.Stage(obs.StageCacheHit)
	obsCacheMiss = obs.Stage(obs.StageCacheMiss)
)

// cachedDataset fronts one Dataset with a verdict cache. It implements
// Dataset by delegation, intercepting only Exact-mode asks.
type cachedDataset struct {
	Dataset
	c *cache.Cache
}

// NewCachedDataset wraps ds so Exact asks consult (and fill) c before
// touching the underlying answering path; Degraded asks bypass it in both
// directions. The cache key is ⟨ds.DatasetID(), ds.Version(), query⟩ with
// the version read at admission, and an entry is only ever filled from a
// verdict the underlying dataset computed at exactly that version — so a
// hit serves a verdict of exactly the version it is labelled with, and a
// committed delta invalidates every prior entry by moving traffic to new
// keys.
//
// The wrapper is an answer-path view: registration and maintenance keep
// going through the registry (or the underlying dataset), which is also
// why it deliberately does not implement DeltaDataset. Wrapping costs one
// allocation; callers serving many requests may wrap once and keep it.
func NewCachedDataset(ds Dataset, c *cache.Cache) Dataset {
	if c == nil {
		return ds
	}
	return &cachedDataset{Dataset: ds, c: c}
}

// errNewerVersion aborts a cache fill whose verdict was computed at a
// newer version than the key it was admitted under (a delta committed in
// between). Errors are never cached, so the key stays empty.
var errNewerVersion = errors.New("store: verdict computed past its cache key's version")

// Ask implements Dataset: a cache hit returns immediately; a cold key runs
// the underlying ask once, with concurrent callers of the same key
// coalesced onto that one run (singleflight).
func (cd *cachedDataset) Ask(ctx context.Context, q []byte, mode Mode) (Verdict, error) {
	if mode != Exact {
		return cd.Dataset.Ask(ctx, q, mode)
	}
	if err := ctx.Err(); err != nil {
		return Verdict{}, err
	}
	version := cd.Dataset.Version()
	start := obs.Start()
	ran := false
	ans, err := cd.c.Do(cd.Dataset.DatasetID(), version, q, func() (bool, error) {
		ran = true
		v, err := cd.Dataset.Ask(ctx, q, Exact)
		if err == nil && v.Version != version {
			err = errNewerVersion
		}
		return v.Answer, err
	})
	if ran {
		obsCacheMiss.Since(start)
	} else {
		// Hits include callers coalesced onto someone else's in-flight run:
		// from the caller's side both are "served from the cache layer".
		obsCacheHit.Since(start)
	}
	if errors.Is(err, errNewerVersion) {
		return cd.Dataset.Ask(ctx, q, Exact)
	}
	return Verdict{Answer: ans, Version: version}, err
}

// AskBatch implements Dataset: cached verdicts are filled in directly — one
// sequential lookup pass; running the lookups through the worker pool only
// ping-pongs the cache shards' locks — and only the misses ride the
// underlying AskBatch worker pool (then populate the cache). The whole
// batch is keyed at one admission version. Misses are answered as one
// sub-batch rather than coalesced per key.
func (cd *cachedDataset) AskBatch(ctx context.Context, queries [][]byte, parallelism int, mode Mode) (Verdicts, error) {
	if mode != Exact {
		return cd.Dataset.AskBatch(ctx, queries, parallelism, mode)
	}
	if err := ctx.Err(); err != nil {
		return Verdicts{}, err
	}
	id := cd.Dataset.DatasetID()
	version := cd.Dataset.Version()
	vs := Verdicts{Answers: make([]bool, len(queries)), Version: version}
	var missIdx []int
	var missQueries [][]byte
	for i, q := range queries {
		if v, ok := cd.c.Lookup(id, version, q); ok {
			vs.Answers[i] = v
		} else {
			missIdx = append(missIdx, i)
			missQueries = append(missQueries, q)
		}
	}
	if len(missIdx) == 0 {
		return vs, nil
	}
	sub, err := cd.Dataset.AskBatch(ctx, missQueries, parallelism, Exact)
	if err != nil || sub.Version != version {
		// An error names the failing query's index *within the misses*,
		// which would be wrong (and cache-state-dependent) for the caller;
		// and after a commit since admission the sub-batch's newer answers
		// must neither mix with hits of the admission version nor be filed
		// under its keys. Either way re-ask the full original batch
		// uncached: it answers against a single Π, an error carries the
		// caller's own lowest failing index — identical bytes to what the
		// uncached path reports — and an expired ctx returns at once.
		return cd.Dataset.AskBatch(ctx, queries, parallelism, Exact)
	}
	for k, i := range missIdx {
		vs.Answers[i] = sub.Answers[k]
		cd.c.Put(id, version, queries[i], sub.Answers[k])
	}
	vs.Degraded = sub.Degraded
	return vs, nil
}

// Answer implements Dataset: Ask in Exact mode with no deadline.
func (cd *cachedDataset) Answer(q []byte) (bool, error) {
	v, err := cd.Ask(context.Background(), q, Exact)
	return v.Answer, err
}

// AnswerBatch implements Dataset: AskBatch in Exact mode with no deadline.
func (cd *cachedDataset) AnswerBatch(queries [][]byte, parallelism int) ([]bool, error) {
	vs, err := cd.AskBatch(context.Background(), queries, parallelism, Exact)
	return vs.Answers, err
}
