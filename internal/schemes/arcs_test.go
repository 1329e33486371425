package schemes

import (
	"bytes"
	"math/rand"
	"testing"

	"pitract/internal/graph"
)

// TestArcFileSeam: the seam is one codec. EncodeArcs of a graph's edges, in
// any order and either orientation, is the closure's arcFileBytes of the
// graph; Each streams the edges back; and every Edit — insert or delete,
// present or absent — is byte for byte the file EncodeArcs lays out for the
// edited edge set, with Has and the had result agreeing with the graph; and
// the edited file streams back (graph) into the edited graph.
func TestArcFileSeam(t *testing.T) {
	for _, directed := range []bool{true, false} {
		rng := rand.New(rand.NewSource(29))
		const n = 48
		g := graph.New(n, directed)
		for step := 0; step < 300; step++ {
			want, err := arcFileBytes(g.Freeze())
			if err != nil {
				t.Fatal(err)
			}
			edges := g.Edges()
			shuffled := make([][2]int, 0, 2*len(edges))
			for _, e := range edges {
				r := e
				if !directed {
					r = [2]int{e[1], e[0]} // an undirected edge either way round
				}
				shuffled = append(shuffled, r, e) // and a repeat, dropped
			}
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			got, err := EncodeArcs(n, directed, shuffled)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("directed=%v step %d: EncodeArcs differs from arcFileBytes (%v)", directed, step, err)
			}
			a, err := ParseArcFile(got, n, directed)
			if err != nil {
				t.Fatal(err)
			}
			var streamed [][2]int
			if err := a.Each(func(u, v int) error { streamed = append(streamed, [2]int{u, v}); return nil }); err != nil {
				t.Fatal(err)
			}
			if len(streamed) != len(edges) || a.Len() != len(edges) {
				t.Fatalf("directed=%v step %d: streamed %d arcs of %d", directed, step, len(streamed), len(edges))
			}
			for i := range edges {
				if streamed[i] != edges[i] {
					t.Fatalf("directed=%v step %d: arc %d streamed as %v, want %v", directed, step, i, streamed[i], edges[i])
				}
			}

			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			insert, present := rng.Intn(2) == 0, g.HasEdge(u, v)
			if has, err := a.Has(v, u); err != nil || has != g.HasEdge(v, u) {
				t.Fatalf("directed=%v step %d: Has(%d,%d) = %v, %v", directed, step, v, u, has, err)
			}
			next, had, err := a.Edit(u, v, insert)
			if err != nil || had != present {
				t.Fatalf("directed=%v step %d: Edit(%d,%d,%v) had=%v, %v; the graph has it: %v", directed, step, u, v, insert, had, err, present)
			}
			switch {
			case insert && !present:
				g.MustAddEdge(u, v)
			case !insert && present:
				if err := g.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
			if edited, err := next.graph(); err != nil || !bytes.Equal(edited.Encode(), g.Encode()) {
				t.Fatalf("directed=%v step %d: the edited file's graph is not the edited graph (%v)", directed, step, err)
			}
			if want, err = arcFileBytes(g.Freeze()); err != nil || !bytes.Equal(next.Bytes(), want) {
				t.Fatalf("directed=%v step %d: Edit(%d,%d,%v) differs from the edited set's file (%v)", directed, step, u, v, insert, err)
			}
		}
	}
}
