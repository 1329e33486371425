package schemes

import (
	"math/rand"
	"testing"

	"pitract/internal/relation"
)

// BenchmarkKeyFile times the sorted key file where serving uses it, on the
// benchmark's key workload: 2²⁰ keys drawn below 2²² (≈ 928 000 distinct),
// then PATCHed 64 fresh keys at a time above that range. Probe is one prepared
// point query for a random key. insert64 adds a third batch to a file already
// holding two, and delete64 drops the first: the writer's steady state.
// relayout64 adds the first batch to the unpatched file, which doubles the
// span and so widens every key's low part. It uses only names the fixed-width
// layout had, so the same file times either layout.
func BenchmarkKeyFile(b *testing.B) {
	const space = 1 << 22
	rng := rand.New(rand.NewSource(2501))
	keys := make([]int64, 1<<20)
	for i := range keys {
		keys[i] = rng.Int63n(space)
	}
	batch := func(b int) []int64 {
		keys := make([]int64, 64)
		for j := range keys {
			keys[j] = space + int64(b*64+j)*2654435761%space
		}
		return keys
	}
	inc := PointSelectionScheme()
	pd, err := inc.Preprocess(RelationFromKeys(keys))
	if err != nil {
		b.Fatal(err)
	}
	patched, err := inc.Preprocess(RelationFromKeys(append(append(keys, batch(0)...), batch(1)...)))
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("Π is %d bytes for %d keys", len(pd), len(keys))

	b.Run("probe", func(b *testing.B) {
		ans, err := inc.Prepare(pd)
		if err != nil {
			b.Fatal(err)
		}
		qs := make([][]byte, 4096)
		for i := range qs {
			qs[i] = PointQuery(rng.Int63n(space))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ans.Answer(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		name  string
		pd    []byte
		delta []byte
	}{
		{"insert64", patched, KeysDelta(batch(2))},
		{"delete64", patched, KeysDeleteDelta(batch(0))},
		{"relayout64", pd, KeysDelta(batch(0))},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := inc.ApplyDelta(c.pd, c.delta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPointPreprocess times the sorted-key Preprocess on the benchmark's
// point_single data — RelationFromKeys of 2²⁰ keys drawn below 2²² — whole
// (total) and by stage, so that column + sort/dense + encode sum to about
// total: column is relation.Int64Column, the reader Preprocess uses; sort is
// dedupSorted over that column (copied back before each run, outside the
// timer), on those keys (dense, the bitmap) and on as many drawn from all of
// int64 (wide, the radix passes); encode is keyFileBytes over the sorted
// keys. decode is relation.Decode and the key column copied out of its
// tuples, the stage as the parent of the column reader ran it. It uses only
// names that parent had, so the same file times either side.
func BenchmarkPointPreprocess(b *testing.B) {
	const space = 1 << 22
	rng := rand.New(rand.NewSource(2501))
	keys := make([]int64, 1<<20)
	for i := range keys {
		keys[i] = rng.Int63n(space)
	}
	wide := make([]int64, len(keys))
	for i := range wide {
		wide[i] = rng.Int63() - rng.Int63()
	}
	d := RelationFromKeys(keys)
	sorted := dedupSorted(append([]int64(nil), keys...))

	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(d)))
		for i := 0; i < b.N; i++ {
			rel, err := relation.Decode(d)
			if err != nil {
				b.Fatal(err)
			}
			col := make([]int64, rel.Len())
			for j, t := range rel.Tuples {
				col[j] = t[0].I
			}
		}
	})
	b.Run("column", func(b *testing.B) {
		b.SetBytes(int64(len(d)))
		for i := 0; i < b.N; i++ {
			if _, err := relation.Int64Column(d, "key"); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		name string
		keys []int64
	}{{"sort/dense", keys}, {"sort/wide", wide}} {
		b.Run(c.name, func(b *testing.B) {
			work := make([]int64, len(c.keys))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(work, c.keys)
				b.StartTimer()
				dedupSorted(work)
			}
		})
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := keyFileBytes(sorted); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("total", func(b *testing.B) {
		b.SetBytes(int64(len(d)))
		pre := PointSelectionScheme().Preprocess
		for i := 0; i < b.N; i++ {
			if _, err := pre(d); err != nil {
				b.Fatal(err)
			}
		}
	})
}
