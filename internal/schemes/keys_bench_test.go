package schemes

import (
	"math/rand"
	"testing"
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
	inc := IncrementalPointSelection()
	pd, err := inc.Scheme.Preprocess(RelationFromKeys(keys))
	if err != nil {
		b.Fatal(err)
	}
	patched, err := inc.Scheme.Preprocess(RelationFromKeys(append(append(keys, batch(0)...), batch(1)...)))
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("Π is %d bytes for %d keys", len(pd), len(keys))

	b.Run("probe", func(b *testing.B) {
		ans, err := inc.Scheme.Prepare(pd)
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
