package shard

import (
	"testing"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
)

// The sharded reachability build, timed where it runs: a registration
// (Split, the members' Preprocess, the rows), a reload (the rows again,
// from the persisted summary) and a cross-edge PATCH (overlay and rows).
// Each is timed on the benchmark's shard_reach_batch graph — an 8 × 256
// community graph with 512 random cross arcs, four range shards, one local
// class of many portals per shard — and on shapes where every portal is a
// class of its own: the same graph cut through every community
// (scatteredCommunity), and a random DAG.

// benchShapes are the graphs the build benchmarks run on, by name.
var benchShapes = []struct {
	name string
	g    func() *graph.Graph
}{
	{"community/range", func() *graph.Graph { return graph.CommunityGraph(8, 256, 512, 1) }},
	{"community/scattered", func() *graph.Graph { return scatteredCommunity(8, 256, 512, 1, 4) }},
	{"dag/range", func() *graph.Graph { return graph.RandomDAG(2048, 8192, 1) }},
}

// BenchmarkShardedRegister is one in-memory closure-matrix registration at
// four shards per shape, and one reload of the community graph's range
// split (store.Load: decode the file, prepare the members, rebuild the
// rows).
func BenchmarkShardedRegister(b *testing.B) {
	scheme := schemes.ReachabilityScheme()
	for _, sh := range benchShapes {
		data := sh.g().Encode()
		b.Run(sh.name, func(b *testing.B) {
			for b.Loop() {
				if _, err := RegisterSharded(store.NewRegistry(""), "g", scheme, 4, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("reload", func(b *testing.B) {
		dir := b.TempDir()
		ss, err := RegisterSharded(store.NewRegistry(""), "g", scheme, 4, benchShapes[0].g().Encode())
		if err != nil {
			b.Fatal(err)
		}
		if err := ss.Checkpoint(store.OSFS, dir); err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			if _, err := load(store.OSFS, dir, "g", scheme); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedCrossDelta is one PATCH of one cross-shard edge, in
// memory, by shape, scheme and kind: the insert of an absent edge from
// shard 0 to shard 3, and the delete of it. Each touches no member, so the
// number is the summary's: find the edge, write the next cross-edge set,
// derive the portals, rebuild the overlay closure and the rows, encode.
func BenchmarkShardedCrossDelta(b *testing.B) {
	for _, sh := range []string{"community", "dag"} {
		for _, scheme := range []*core.Scheme{schemes.ReachabilityScheme(), schemes.ReachabilityLabelsScheme()} {
			g := graph.CommunityGraph(8, 256, 512, 1)
			if sh == "dag" {
				g = graph.RandomDAG(2048, 8192, 1)
			}
			reg := store.NewRegistry("")
			ss, err := RegisterSharded(reg, "g", scheme, 4, g.Encode())
			if err != nil {
				b.Fatal(err)
			}
			// The first absent pair from shard 0 to shard 3 (an arc forward
			// in vertex order, so the DAG stays one).
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
			// A classic b.N loop: the other half of each pair runs with the
			// timer stopped, which b.Loop does not account for.
			b.Run(sh+"/"+scheme.Name()+"/insert", func(b *testing.B) {
				for range b.N {
					apply(b, insert)
					b.StopTimer()
					apply(b, del)
					b.StartTimer()
				}
			})
			b.Run(sh+"/"+scheme.Name()+"/delete", func(b *testing.B) {
				for range b.N {
					b.StopTimer()
					apply(b, insert)
					b.StartTimer()
					apply(b, del)
				}
			})
		}
	}
}
