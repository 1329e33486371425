// Package shard partitions one dataset across several preprocessed parts
// and routes queries to them — the horizontal-scaling face of the paper's
// Π-tractability contract. Preprocess(D) is PTIME in |D|; cutting D into n
// parts preprocesses n datasets of size |D|/n (concurrently, and with
// sub-linear artifacts like the reachability closure matrix, into
// strictly smaller total output), while answering stays inside the NC
// budget: a query is either routed to the single shard that owns its
// answer, or answered through a view prepared over all of them.
//
// The moving parts:
//
//   - RangePartitioner freezes an Assignment of element keys to shards:
//     contiguous key ranges of roughly equal population.
//   - Sharding is the per-scheme bundle of five hooks: Split decodes the
//     dataset once and returns the assignment, the n sub-datasets and the
//     cross-shard summary (e.g. the reachability portal overlay); Prepare
//     turns a persisted summary plus the per-shard answerers into the view
//     every query answers through (a scheme without one gets the router over
//     Route, which finds a query's owning shard or fans it out, verdicts
//     ORed); SplitDelta routes one delta to the shards it lands on; Maintain
//     carries the summary and the view over one delta batch.
//   - ShardedStore is a store.Store — the one committed value, answering,
//     staging and the Dataset accessors all live there — laid out over n
//     members by the partition: it is the store's Layout, routing deltas
//     over the frozen assignment (SplitDelta), opening and carrying the view
//     (Prepare, Maintain) and encoding the file's layout field, and it adds
//     only the partition's facts (Asn, Partitioner, the Sharding hooks). It
//     answers exactly like a plain store — differential tests pin sharded
//     answers byte-identical to unsharded ones.
//   - RegisterSharded registers the whole thing as one catalog entry backed
//     by one file — store's one format, every member's snapshot inside,
//     written by one atomic rename — read back through LayoutDecoder.
//
// Layering: shard sits on top of internal/store (it reuses the file format,
// store.Load and store.Open, the one Stage, and rides store.ApplyDeltas and
// Registry.RegisterAs) and below internal/server (which routes /v1/query
// through store.Dataset).
package shard

import (
	"fmt"
	"sync"

	"pitract/internal/core"
	"pitract/internal/obs"
	"pitract/internal/store"
)

// Stage histograms for the sharded answer and build paths, resolved once at
// init. Fan-out times a query sent to every shard (cost scales with shard
// count); merge times answering through the prepared summary view
// (reachability: a word-AND over the portal reach rows). Warm-up and the
// maintenance stages are store's, for every layout.
var (
	obsShardFanout = obs.Stage(obs.StageShardFanout)
	obsShardMerge  = obs.Stage(obs.StageShardMerge)
	obsPreprocess  = obs.Stage(obs.StagePreprocess)
)

// Sharding adapts one scheme to a partitioned dataset. Split runs once, at
// preprocessing time; Route and the prepared view sit on the answer path and
// must stay within the scheme's NC answering budget (they do constant or
// polylog work over the assignment and summary, never touch raw data).
type Sharding struct {
	// Split decodes data once, plans the assignment of its element keys to n
	// key ranges (RangePartitioner.Plan), and re-encodes it as n sub-datasets
	// — element i in part asn.Shard(key i), every part a dataset the scheme's
	// Preprocess accepts — plus the cross-shard summary the manifest persists
	// (e.g. the reachability portal-overlay closure; nil when the scheme
	// needs none). Plan's errors pass through; the hook's own name their phase
	// ("keys: …" for a dataset that yields no keys, "split: …" for parts or a
	// summary that cannot be built).
	Split func(data []byte, n int) (asn Assignment, parts [][]byte, summary []byte, err error)
	// Prepare builds the dataset's prepared view from a persisted summary and
	// the per-shard prepared answerers — at build and load, never per
	// query (that would smuggle O(|D|) work into the NC answering budget) and
	// not per PATCH (Maintain carries the view forward). Schemes that set it
	// answer every query through the returned Answerer and Route is not
	// consulted; the view is derived state, never persisted. Nil for schemes
	// whose queries Route alone can place: their view is the router.
	Prepare func(summary []byte, asn Assignment, shards []core.Answerer) (core.Answerer, error)
	// Route returns the single shard that alone owns q's answer, or -1 to
	// send q unchanged to every shard and OR the verdicts.
	Route func(q []byte, asn Assignment) (int, error)

	// SplitDelta routes one dataset delta to the shards it lands on: the
	// result maps a shard index to the local deltas (in application order)
	// for that shard's Π, each in the scheme's own delta encoding —
	// e.g. a key-insertion batch splits by key range into one per-shard
	// batch, and a same-shard edge insert becomes one relabelled local
	// edge. An empty map is valid (a purely cross-shard delta touches only
	// the summary). view is the dataset's prepared view *as of the start of
	// the delta batch* — SplitDelta must only depend on
	// summary state deltas cannot change (the vertex universe and
	// relabelling, not derived connectivity). Every sharded form has one.
	SplitDelta func(delta []byte, asn Assignment, view core.Answerer) (map[int][][]byte, error)
	// Maintain carries a scheme's own view over one delta batch, once the
	// batch's local deltas are applied: it starts from the committed view
	// (which it must not modify — queries are reading it), applies the deltas'
	// changes to the cross-shard structure in order, rebuilds what is derived
	// from it and from shards — the staged, not yet committed, per-shard
	// answerers — once, and returns the next view with its summary encoded
	// once. A refusal names what failed ("delta 3: summary: …", "finish
	// summary: …") and nothing is applied. Nil means deltas never change the
	// summary: the next view is prepared from the same bytes (the router, for
	// a scheme without Prepare).
	Maintain func(view core.Answerer, asn Assignment, deltas [][]byte, shards []core.Answerer) (summary []byte, next core.Answerer, err error)
}

// ShardedStore is one dataset served from n preprocessed parts behind a
// single catalog entry: a *store.Store laid out by the partition, and the
// partition's facts. It is that store's Layout — the methods below — so the
// registry and the HTTP server treat it exactly like a plain store, and every
// query answers through the committed view.
type ShardedStore struct {
	*store.Store
	// Sharding is the per-scheme hook bundle.
	Sharding *Sharding
	// Asn is the frozen key→shard assignment.
	Asn Assignment
	// Partitioner names the partitioner that planned Asn, as the file's
	// layout field carries it ("range").
	Partitioner string
}

// router is the view of a scheme without its own Prepare: Route places a
// query on its owning shard's answerer, or the query goes unchanged to
// every shard and the verdicts are ORed.
type router struct {
	route  func(q []byte, asn Assignment) (int, error)
	asn    Assignment
	shards []core.Answerer
}

// Answer implements core.Answerer.
func (r *router) Answer(q []byte) (bool, error) {
	owner, err := r.route(q, r.asn)
	if err != nil {
		return false, err
	}
	if owner >= len(r.shards) {
		return false, fmt.Errorf("shard: route to shard %d out of range [0,%d)", owner, len(r.shards))
	}
	if owner >= 0 {
		return r.shards[owner].Answer(q)
	}
	fanStart := obs.Start()
	found := false
	for _, sh := range r.shards {
		v, err := sh.Answer(q)
		if err != nil {
			return false, err
		}
		found = found || v
	}
	obsShardFanout.Since(fanStart)
	return found, nil
}

// Open implements store.Layout: the scheme's own view over ⟨summary,
// shards⟩, or the router — over one member per assigned shard.
func (ss *ShardedStore) Open(summary []byte, shards []core.Answerer) (core.Answerer, error) {
	if len(shards) != ss.Asn.Shards() {
		return nil, fmt.Errorf("shard: %d members for an assignment of %d shards", len(shards), ss.Asn.Shards())
	}
	if ss.Sharding.Prepare == nil {
		return &router{route: ss.Sharding.Route, asn: ss.Asn, shards: shards}, nil
	}
	view, err := ss.Sharding.Prepare(summary, ss.Asn, shards)
	if err != nil {
		return nil, fmt.Errorf("prepare summary: %w", err)
	}
	return view, nil
}

// Route implements store.Layout through the scheme's SplitDelta.
func (ss *ShardedStore) Route(delta []byte, view core.Answerer) (map[int][][]byte, error) {
	return ss.Sharding.SplitDelta(delta, ss.Asn, view)
}

// Carry implements store.Layout through the scheme's Maintain — for
// reachability the cross-edge arc file, the overlay closure and the portal
// reach rows — or, for a scheme whose deltas never change the summary, by
// opening the view afresh over the staged shards.
func (ss *ShardedStore) Carry(summary []byte, view core.Answerer, deltas [][]byte, shards []core.Answerer) ([]byte, core.Answerer, error) {
	if ss.Sharding.Maintain != nil {
		return ss.Sharding.Maintain(view, ss.Asn, deltas, shards)
	}
	next, err := ss.Open(summary, shards)
	return summary, next, err
}

// Merge implements store.Layout: a scheme's own view is timed as
// shard_merge. The router is not: its routed singles must not pay a clock
// pair per probe, and its fan-outs time themselves.
func (ss *ShardedStore) Merge() *obs.Histogram {
	if ss.Sharding.Prepare == nil {
		return nil
	}
	return obsShardMerge
}

// Describe implements store.Layout.
func (ss *ShardedStore) Describe() string { return describe(ss.Asn.Shards()) }

// describe names the layout of n key ranges.
func describe(n int) string { return fmt.Sprintf("%d-shard range", n) }

// Build cuts data into n key ranges, preprocesses every part concurrently,
// and opens the sharded store over them. It does not persist anything;
// RegisterSharded adds the file. The partitioner argument names the one
// there is.
func Build(id string, scheme *core.Scheme, sh *Sharding, _ RangePartitioner, n int, data []byte) (*ShardedStore, error) {
	return build(id, scheme, sh, n, data, func() store.DataChecksum { return store.SumData(data) })
}

// build is Build with the digest of data supplied by the caller: a
// registration hashes data once, beside the split (store.SumBeside), and
// both its catalog key and the store opened here take that one sum.
func build(id string, scheme *core.Scheme, sh *Sharding, n int, data []byte, sum func() store.DataChecksum) (*ShardedStore, error) {
	if scheme == nil || sh == nil {
		return nil, fmt.Errorf("shard: build %q: nil scheme or sharding", id)
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: build %q: shard count %d < 1", id, n)
	}
	asn, parts, summary, err := sh.Split(data, n)
	if err != nil {
		return nil, fmt.Errorf("shard: build %q: %w", id, err)
	}
	if len(parts) != n {
		return nil, fmt.Errorf("shard: build %q: split produced %d parts, want %d", id, len(parts), n)
	}
	// Preprocess the parts concurrently: the per-part PTIME cost is the
	// thing sharding scales out.
	var wg sync.WaitGroup
	members, errs := make([]store.Member, n), make([]error, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("shard: build %q: preprocess shard %d panicked: %v", id, i, p)
				}
			}()
			ppStart := obs.Start()
			pd, err := scheme.Preprocess(parts[i])
			if err != nil {
				errs[i] = fmt.Errorf("shard: build %q: preprocess shard %d: %w", id, i, err)
				return
			}
			obsPreprocess.Since(ppStart)
			members[i] = store.Member{Prep: pd, Sum: store.SumData(parts[i])}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// The members' prepared forms and the summary view (reachability: the
	// portal reach rows) are part of registration, not of the first query.
	ss := &ShardedStore{Sharding: sh, Asn: asn, Partitioner: RangePartitioner{}.Name()}
	if ss.Store, err = store.Open(id, scheme, sum(), ss, 0, summary, members); err != nil {
		return nil, fmt.Errorf("shard: build %q: %w", id, err)
	}
	return ss, nil
}
