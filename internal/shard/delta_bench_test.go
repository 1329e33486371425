package shard

import (
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// BenchmarkShardedCrossDelta is one PATCH of one cross-shard edge on the
// benchmark's shard_reach_batch graph — an 8 × 256 community graph with 512
// random cross arcs, four range shards, in memory — by kind: the insert of
// an absent edge, and the delete of it. Each touches no member, so the
// number is the summary's: find the edge, write the next cross-edge set,
// derive the portals, rebuild the overlay closure and the rows, encode.
// The file compiles against the commit before the arc file too.
func BenchmarkShardedCrossDelta(b *testing.B) {
	for _, scheme := range []*core.Scheme{schemes.ReachabilityScheme(), schemes.ReachabilityLabelsScheme()} {
		g := graph.CommunityGraph(8, 256, 512, 1)
		reg := store.NewRegistry("")
		ss, err := RegisterSharded(reg, "g", scheme, RangePartitioner{}, 4, g.Encode())
		if err != nil {
			b.Fatal(err)
		}
		// The first absent pair from shard 0 to shard 3.
		u, v := 0, g.N()-1
		for g.HasEdge(u, v) {
			u++
		}
		if ss.Asn.Shard(int64(u)) == ss.Asn.Shard(int64(v)) {
			b.Fatal("fixture: the edge does not cross shards")
		}
		insert, del := [][]byte{schemes.EdgeDelta(u, v)}, [][]byte{schemes.EdgeDeleteDelta(u, v)}
		apply := func(b *testing.B, batch [][]byte) {
			if _, err := reg.ApplyDelta("g", batch); err != nil {
				b.Fatal(err)
			}
		}
		// A classic b.N loop: the other half of each pair runs with the timer
		// stopped, which b.Loop does not account for.
		b.Run(scheme.Name()+"/insert", func(b *testing.B) {
			for range b.N {
				apply(b, insert)
				b.StopTimer()
				apply(b, del)
				b.StartTimer()
			}
		})
		b.Run(scheme.Name()+"/delete", func(b *testing.B) {
			for range b.N {
				b.StopTimer()
				apply(b, insert)
				b.StartTimer()
				apply(b, del)
			}
		})
	}
}
