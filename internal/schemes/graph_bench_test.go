package schemes

import (
	"testing"

	"pitract/internal/graph"
)

// BenchmarkGraphDecode: a graph registration's set-up by layer, on the three
// benchmark mixes' graphs — bfs_zipf_cached's RandomDirected(16384, 65536),
// closure_batch_cached's RandomDirected(4096, 16384) and shard_reach_batch's
// CommunityGraph(8, 256, 512) — each encoded as the wire carries it. decode
// is graph.Decode alone; prepare-bfs is the search baseline's whole Prepare
// and preprocess-closure the closure-matrix Preprocess, each of which starts
// with that decode. Run with -benchmem. It calls nothing the layout of the
// decoded graph shows through, so it compiles at a commit from before Decode
// returned the CSR too.
func BenchmarkGraphDecode(b *testing.B) {
	for _, shape := range []struct {
		name    string
		g       *graph.Graph
		closure bool
	}{
		{"random16384", graph.RandomDirected(16384, 65536, 1), false},
		{"random4096", graph.RandomDirected(4096, 16384, 1), true},
		{"community", graph.CommunityGraph(8, 256, 512, 1), true},
	} {
		d := shape.g.Encode()
		b.Run(shape.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(d)))
			for i := 0; i < b.N; i++ {
				if _, err := graph.Decode(d); err != nil {
					b.Fatal(err)
				}
			}
		})
		if !shape.closure {
			b.Run(shape.name+"/prepare-bfs", func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(d)))
				for i := 0; i < b.N; i++ {
					if _, err := prepareBFS(d); err != nil {
						b.Fatal(err)
					}
				}
			})
			continue
		}
		pre := ReachabilityScheme().Preprocess
		b.Run(shape.name+"/preprocess-closure", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(d)))
			for i := 0; i < b.N; i++ {
				if _, err := pre(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
