package shard

// One conformance table for the answer seam: every dataset kind — plain
// Store, cached Store, ShardedStore answering through a scheme's own
// Prepare view, ShardedStore answering through the router, and a cached
// ShardedStore — must give byte-identical outcomes to the plain Store of
// the same scheme for Ask and AskBatch under every context flavour: the
// same verdicts, the same error bytes on malformed queries, and a version
// equal to the number of PATCHes applied.

import (
	"context"
	"fmt"
	"strings"
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
	var selections [][]byte
	for lo := int64(-25); lo < 100; lo += 9 {
		selections = append(selections, schemes.PointQuery(lo), schemes.RangeQuery(lo, lo), schemes.RangeQuery(lo, lo+5), schemes.RangeQuery(lo, lo+60))
	}
	withMalformed := func(good [][]byte, bad ...[]byte) [][]byte {
		out := append([][]byte(nil), good[:len(good)/2]...)
		out = append(out, bad...)
		return append(out, good[len(good)/2:]...)
	}
	return []conformanceFamily{
		{
			// A scheme with its own Prepare view (portal reach rows).
			name: "view", scheme: schemes.ReachabilityLabelsScheme(),
			data:       g.Encode(),
			patches:    [][]byte{schemes.EdgeDelta(0, g.N()-1), schemes.EdgeDelta(g.N()-1, 1)},
			wellFormed: pairs,
			queries: withMalformed(pairs,
				[]byte{}, []byte{0x80}, schemes.NodePairQuery(0, g.N()+5), append(schemes.NodePairQuery(0, 1), 1)),
		},
		{
			// A scheme without one: the router is its view — a point query
			// and lo == hi route, a range spanning shards fans out.
			name: "routed", scheme: schemes.PointSelectionScheme(),
			data:       schemes.RelationFromKeys(keys),
			patches:    [][]byte{schemes.KeysDelta([]int64{-23, 31}), schemes.KeysDeleteDelta([]int64{keys[3], keys[4]})},
			wellFormed: selections,
			queries: withMalformed(selections,
				[]byte{}, []byte{0x80}, append(schemes.PointQuery(3), 0x80), append(schemes.RangeQuery(1, 2), 1)),
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
	sharded, err := RegisterSharded(shardReg, "d", fam.scheme, 3, fam.data)
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
func outcome(answers []bool, version uint64, err error) string {
	if err != nil {
		return fmt.Sprintf("v%d error %q", version, err)
	}
	return fmt.Sprintf("v%d %v", version, answers)
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
							v, err := ds.Ask(c.ctx, q)
							return outcome([]bool{v.Answer}, v.Version, err)
						})
						ask(fmt.Sprintf("AskWithin[%d]", qi), func(ds store.Dataset) string {
							v, err := store.AskWithin(c.ctx, ds, q)
							return outcome([]bool{v.Answer}, v.Version, err)
						})
					}
					for name, batch := range map[string][][]byte{"answers": fam.wellFormed, "fails": fam.queries, "empty": nil} {
						for _, par := range []int{1, 4} {
							ask(fmt.Sprintf("AskBatch[%s,par=%d]", name, par), func(ds store.Dataset) string {
								vs, err := ds.AskBatch(c.ctx, batch, par)
								return outcome(vs.Answers, vs.Version, err)
							})
							ask(fmt.Sprintf("AskBatchWithin[%s,par=%d]", name, par), func(ds store.Dataset) string {
								vs, err := store.AskBatchWithin(c.ctx, ds, batch, par)
								return outcome(vs.Answers, vs.Version, err)
							})
						}
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
		})
	}
}
