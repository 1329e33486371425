package shard

// One conformance table for the answer seam: every dataset kind — plain
// Store, cached Store, ShardedStore answering through a scheme's own
// Prepare view, ShardedStore answering through the router, and a cached
// ShardedStore — must give byte-identical outcomes to the plain Store of
// the same scheme for Ask and AskBatch under every context flavour and
// mode: the same verdicts, the same error bytes on malformed queries, a
// version equal to the number of PATCHes applied, and ErrNoFallback for a
// Degraded ask of a dataset that cannot degrade.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pitract/internal/cache"
	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// conformanceFamily is one scheme's scenario: the kinds below are built
// over the same data and compared against the family's plain Store.
type conformanceFamily struct {
	name    string
	scheme  *core.Scheme
	part    Partitioner
	data    []byte
	patches [][]byte // one delta per PATCH
	// queries mixes well-formed and malformed queries; a batch of all of
	// them fails at the first malformed one, wellFormed is the prefix-free
	// subset that answers.
	queries, wellFormed [][]byte
}

func conformanceFamilies() []conformanceFamily {
	g := graph.CommunityGraph(3, 6, 9, 4242)
	var pairs [][]byte
	for u := 0; u < g.N(); u += 2 {
		for v := 1; v < g.N(); v += 3 {
			pairs = append(pairs, schemes.NodePairQuery(u, v))
		}
	}
	keys := make([]int64, 40)
	for i := range keys {
		keys[i] = int64(7*i%97) - 20
	}
	var ranges [][]byte
	for lo := int64(-25); lo < 100; lo += 9 {
		ranges = append(ranges, schemes.RangeQuery(lo, lo), schemes.RangeQuery(lo, lo+5), schemes.RangeQuery(lo, lo+60))
	}
	withMalformed := func(good [][]byte, bad ...[]byte) [][]byte {
		out := append([][]byte(nil), good[:len(good)/2]...)
		out = append(out, bad...)
		return append(out, good[len(good)/2:]...)
	}
	return []conformanceFamily{
		{
			// A scheme with its own Prepare view (portal reach rows) and a
			// declared fallback on the plain store.
			name: "view", scheme: schemes.ReachabilityLabelsScheme(), part: RangePartitioner{},
			data:       g.Encode(),
			patches:    [][]byte{schemes.EdgeDelta(0, g.N()-1), schemes.EdgeDelta(g.N()-1, 1)},
			wellFormed: pairs,
			queries: withMalformed(pairs,
				[]byte{}, []byte{0x80}, schemes.NodePairQuery(0, g.N()+5), append(schemes.NodePairQuery(0, 1), 1)),
		},
		{
			// A scheme without one: the router is its view — lo == hi routes,
			// a range spanning hash shards fans out.
			name: "routed", scheme: schemes.RangeSelectionScheme(), part: HashPartitioner{},
			data:       schemes.RelationFromKeys(keys),
			patches:    [][]byte{schemes.KeysDelta([]int64{-23, 31}), schemes.KeysDeleteDelta([]int64{keys[3], keys[4]})},
			wellFormed: ranges,
			queries: withMalformed(ranges,
				[]byte{}, []byte{0x80}, schemes.PointQuery(3), append(schemes.RangeQuery(1, 2), 1)),
		},
	}
}

// conformanceKind is one way of serving a family's dataset.
type conformanceKind struct {
	name string
	reg  *store.Registry
	ds   store.Dataset
}

func conformanceKinds(t *testing.T, fam conformanceFamily) []conformanceKind {
	t.Helper()
	plainReg, shardReg := store.NewRegistry(""), store.NewRegistry("")
	plain, err := plainReg.Register("d", fam.scheme, fam.data)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := RegisterSharded(shardReg, "d", fam.scheme, fam.part, 3, fam.data)
	if err != nil {
		t.Fatal(err)
	}
	return []conformanceKind{
		{"store", plainReg, plain},
		{"cached-store", plainReg, store.NewCachedDataset(plain, cache.New(1<<20))},
		{"sharded", shardReg, sharded},
		{"cached-sharded", shardReg, store.NewCachedDataset(sharded, cache.New(1<<20))},
	}
}

// outcome renders one ask's full result as comparable bytes.
func outcome(answers []bool, version uint64, degraded int, err error) string {
	if err != nil {
		return fmt.Sprintf("v%d error %q", version, err)
	}
	return fmt.Sprintf("v%d degraded=%d %v", version, degraded, answers)
}

func TestAnswerSeamConformance(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	armed, disarm := context.WithTimeout(context.Background(), time.Minute)
	defer disarm()
	contexts := []struct {
		name string
		ctx  context.Context
	}{{"background", context.Background()}, {"armed", armed}, {"cancelled", cancelled}}

	for _, fam := range conformanceFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			kinds := conformanceKinds(t, fam)
			ref := kinds[0].ds
			for patched := 0; ; patched++ {
				for _, c := range contexts {
					// ask runs one operation against every kind — twice, so
					// the cached kinds answer once cold and once from the
					// cache — and demands the reference's exact outcome.
					ask := func(op string, run func(ds store.Dataset) string) {
						t.Helper()
						want := run(ref)
						if c.ctx.Err() == nil && !strings.HasPrefix(want, fmt.Sprintf("v%d ", patched)) {
							t.Fatalf("%s/%s after %d PATCHes: reference outcome %s is not labelled version %d", c.name, op, patched, want, patched)
						}
						for _, k := range kinds {
							for pass := 0; pass < 2; pass++ {
								if got := run(k.ds); got != want {
									t.Fatalf("%s/%s on %s (pass %d, %d PATCHes):\n got %s\nwant %s", c.name, op, k.name, pass, patched, got, want)
								}
							}
						}
					}
					for qi, q := range fam.queries {
						ask(fmt.Sprintf("Ask[%d]", qi), func(ds store.Dataset) string {
							v, err := ds.Ask(c.ctx, q, store.Exact)
							return outcome([]bool{v.Answer}, v.Version, 0, err)
						})
						ask(fmt.Sprintf("AskWithin[%d]", qi), func(ds store.Dataset) string {
							v, err := store.AskWithin(c.ctx, ds, q, store.Exact)
							return outcome([]bool{v.Answer}, v.Version, 0, err)
						})
					}
					for name, batch := range map[string][][]byte{"answers": fam.wellFormed, "fails": fam.queries, "empty": nil} {
						for _, par := range []int{1, 4} {
							ask(fmt.Sprintf("AskBatch[%s,par=%d]", name, par), func(ds store.Dataset) string {
								vs, err := ds.AskBatch(c.ctx, batch, par, store.Exact)
								return outcome(vs.Answers, vs.Version, vs.Degraded, err)
							})
							ask(fmt.Sprintf("AskBatchWithin[%s,par=%d]", name, par), func(ds store.Dataset) string {
								vs, err := store.AskBatchWithin(c.ctx, ds, batch, par, store.Exact)
								return outcome(vs.Answers, vs.Version, vs.Degraded, err)
							})
						}
					}
				}
				// Degraded: a kind that can degrade gives the exact verdicts,
				// flagged; one that cannot refuses with ErrNoFallback — the
				// dataset, not a query, so before the batch (empty or not) and
				// in the same words whatever the kind.
				exact, err := ref.AskBatch(context.Background(), fam.wellFormed, 1, store.Exact)
				if err != nil {
					t.Fatal(err)
				}
				refusal := fmt.Sprintf("scheme %s: %v", fam.scheme.Name(), store.ErrNoFallback)
				for _, k := range kinds {
					one, oneErr := k.ds.Ask(context.Background(), fam.wellFormed[0], store.Degraded)
					all, allErr := k.ds.AskBatch(context.Background(), fam.wellFormed, 2, store.Degraded)
					none, noneErr := k.ds.AskBatch(context.Background(), nil, 2, store.Degraded)
					if !k.ds.CanDegrade() {
						for op, err := range map[string]error{"Ask": oneErr, "AskBatch": allErr, "empty AskBatch": noneErr} {
							if !errors.Is(err, store.ErrNoFallback) || err.Error() != refusal {
								t.Fatalf("Degraded %s on %s (no fallback) = %v, want ErrNoFallback as %q", op, k.name, err, refusal)
							}
						}
						continue
					}
					if got, want := outcome(none.Answers, none.Version, none.Degraded, noneErr), outcome([]bool{}, uint64(patched), 0, nil); got != want {
						t.Fatalf("Degraded empty AskBatch on %s:\n got %s\nwant %s", k.name, got, want)
					}
					if oneErr != nil || !one.Degraded || one.Answer != exact.Answers[0] || one.Version != uint64(patched) {
						t.Fatalf("Degraded Ask on %s = (%+v, %v), want %v flagged at version %d", k.name, one, oneErr, exact.Answers[0], patched)
					}
					if got, want := outcome(all.Answers, all.Version, all.Degraded, allErr), outcome(exact.Answers, uint64(patched), len(fam.wellFormed), nil); got != want {
						t.Fatalf("Degraded AskBatch on %s:\n got %s\nwant %s", k.name, got, want)
					}
				}
				if patched == len(fam.patches) {
					break
				}
				for _, reg := range []*store.Registry{kinds[0].reg, kinds[2].reg} {
					if _, err := reg.ApplyDelta("d", fam.patches[patched:patched+1]); err != nil {
						t.Fatalf("PATCH %d: %v", patched, err)
					}
				}
			}
			if fam.name == "view" && !ref.CanDegrade() {
				t.Fatal("the view family's plain store must exercise the Degraded-capable rows")
			}
		})
	}
}

// TestRoutedStickyPrepareIsolated is the routed-scheme twin of
// TestShardedStickyPrepareIsolated: with the router as the view, a shard
// whose Prepare failed fails exactly the queries routed to it — as a typed
// PrepareError — queries owned by healthy shards still answer, and a batch
// reports the failure in the one batch error shape every dataset kind
// uses, naming the caller's own index of the first query that reached the
// failed shard (not that shard's sub-batch index).
func TestRoutedStickyPrepareIsolated(t *testing.T) {
	var failing atomic.Bool
	var bad []byte
	base := schemes.PointSelectionScheme()
	sch := *base
	sch.PrepareAnswerer = func(pd []byte) (core.Answerer, error) {
		if failing.Load() && string(pd) == string(bad) {
			return nil, errors.New("injected decode fault")
		}
		return base.Prepare(pd)
	}
	keys := make([]int64, 30)
	for i := range keys {
		keys[i] = int64(i * 3)
	}
	ss, err := RegisterSharded(store.NewRegistry(""), "k", &sch, RangePartitioner{}, 3, schemes.RelationFromKeys(keys))
	if err != nil {
		t.Fatal(err)
	}
	const sick = 1
	_, _, members := ss.Committed()
	bad = members[sick].Prep
	failing.Store(true)
	if err := ss.RetryPrepare(); err == nil {
		t.Fatal("RetryPrepare under the fault reported success")
	}

	// A batch in key order: the first queries belong to shard 0, so the
	// first one routed to the failed shard sits at an index k > 0.
	var batch [][]byte
	first := -1
	for i, k := range keys {
		batch = append(batch, schemes.PointQuery(k))
		owner := ss.Asn.Shard(k)
		if owner == sick && first < 0 {
			first = i
		}
		got, err := ss.Answer(batch[i])
		var pe *store.PrepareError
		switch {
		case owner == sick && !errors.As(err, &pe):
			t.Fatalf("key %d is owned by the failed shard but returned (%v, %v), want a PrepareError", k, got, err)
		case owner != sick && (err != nil || !got):
			t.Fatalf("key %d is owned by healthy shard %d but returned (%v, %v)", k, owner, got, err)
		}
	}
	if first <= 0 {
		t.Fatalf("first query routed to the failed shard is at index %d; the scenario needs k > 0", first)
	}
	for _, par := range []int{1, 3} {
		_, err := ss.AnswerBatch(batch, par)
		want := fmt.Sprintf("scheme %s: batch query %d: injected decode fault", sch.Name(), first)
		var pe *store.PrepareError
		if err == nil || err.Error() != want || !errors.As(err, &pe) {
			t.Fatalf("batch (parallelism %d) over a failed shard = %v, want the PrepareError %q", par, err, want)
		}
	}
	if got, err := ss.AnswerBatch(batch[:first], 2); err != nil || len(got) != first {
		t.Fatalf("batch of healthy-shard queries = (%v, %v), want %d answers", got, err, first)
	}

	failing.Store(false)
	if err := ss.RetryPrepare(); err != nil {
		t.Fatalf("RetryPrepare after the heal: %v", err)
	}
	if got, err := ss.AnswerBatch(batch, 2); err != nil || len(got) != len(batch) {
		t.Fatalf("healed batch = (%d answers, %v)", len(got), err)
	}
}
