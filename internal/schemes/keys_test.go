package schemes

// The sorted key file against a sorted slice: every probe equals sort.Search
// over the distinct keys, and every maintained file equals the file
// Preprocess lays out for the edited set, byte for byte, on whichever path
// (splice or merge) the edit takes. Arbitrary bytes as Π never panic a reader.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"pitract/internal/core"
	"pitract/internal/relation"
)

// fuzzKeys reads keys from b as a varint stream of steps, each key the
// previous one plus the step (wrapping), so small steps make dense runs and
// large ones span the whole range. fuzzKeyBytes writes a key list so.
func fuzzKeys(b []byte) []int64 {
	var keys []int64
	k := int64(0)
	for len(keys) < 1<<8 {
		step, n := binary.Varint(b)
		if n <= 0 {
			break
		}
		b, k = b[n:], k+step
		keys = append(keys, k)
	}
	return keys
}

func fuzzKeyBytes(keys []int64) []byte {
	var b []byte
	prev := int64(0)
	for _, k := range keys {
		b = binary.AppendVarint(b, k-prev)
		prev = k
	}
	return b
}

func mustKeyFile(t testing.TB, keys []int64) []byte {
	t.Helper()
	pd, err := ListMembershipScheme().Preprocess(EncodeList(keys))
	if err != nil {
		t.Fatal(err)
	}
	return pd
}

// checkProbes holds every point and range probe of pd's prepared form to
// sort.Search over keys (ascending, distinct): each key, its neighbours, the
// ends of int64, and ranges that are empty (lo > hi), start below the
// minimum or end above the maximum.
func checkProbes(t *testing.T, pd []byte, keys []int64) {
	t.Helper()
	prep, err := PointSelectionScheme().Prepare(pd)
	if err != nil {
		t.Fatal(err)
	}
	ask := func(q []byte, want bool, what string) {
		t.Helper()
		if got, err := prep.Answer(q); err != nil || got != want {
			t.Fatalf("%s over %d keys: prepared (%v, %v), want %v", what, len(keys), got, err, want)
		}
	}
	nextGEQ := func(x int64) (int64, bool) {
		i := sort.Search(len(keys), func(i int) bool { return keys[i] >= x })
		if i == len(keys) {
			return 0, false
		}
		return keys[i], true
	}
	cands := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for _, k := range keys[:min(len(keys), 64)] {
		cands = append(cands, k-1, k, k+1)
	}
	for i, c := range cands {
		v, ok := nextGEQ(c)
		ask(PointQuery(c), ok && v == c, "point")
		d := cands[(i+1)%len(cands)]
		for _, r := range [][2]int64{{c, c}, {c, d}, {d, c}, {math.MinInt64, c}, {c, math.MaxInt64}} {
			v, ok := nextGEQ(r[0])
			ask(RangeQuery(r[0], r[1]), r[0] <= r[1] && ok && v <= r[1], "range")
		}
	}
}

// checkEdit holds one insert and one delete of edit against Preprocess of the
// edited key set, byte for byte, and reports whether each kept L.
func checkEdit(t *testing.T, pd []byte, keys, edit []int64) (keptL [2]bool) {
	t.Helper()
	f, err := parseKeyFile(pd)
	if err != nil {
		t.Fatal(err)
	}
	inserted := dedupSorted(append(slices.Clone(keys), edit...))
	deleted := without(keys, edit)
	for i, c := range []struct {
		delta []byte
		want  []int64
	}{{KeysDelta(edit), inserted}, {KeysDeleteDelta(edit), deleted}} {
		got, err := applyKeysDelta(pd, c.delta)
		if err != nil {
			t.Fatalf("%d keys, edit %v: %v", len(keys), edit, err)
		}
		if want := mustKeyFile(t, c.want); !bytes.Equal(got, want) {
			t.Fatalf("%d keys, edit %v (delete %v): maintained Π (%d bytes) differs from Preprocess of the edited set (%d bytes)", len(keys), edit, i == 1, len(got), len(want))
		}
		g, err := parseKeyFile(got)
		if err != nil {
			t.Fatal(err)
		}
		keptL[i] = f.n > 0 && g.n > 0 && g.l == f.l
	}
	return keptL
}

// without returns keys less every key of edit.
func without(keys, edit []int64) []int64 {
	drop := dedupSorted(slices.Clone(edit))
	return slices.DeleteFunc(slices.Clone(keys), func(k int64) bool {
		_, found := slices.BinarySearch(drop, k)
		return found
	})
}

// keyShapes are the key sets the seeds and the tests share: the empty set,
// one key, both ends of int64, a dense run (L = 0), every key in one bucket
// but the last, and random sets over small and large spans.
func keyShapes() map[string][]int64 {
	rng := rand.New(rand.NewSource(26))
	random := func(n int, span int64) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(span) - span/2
		}
		return dedupSorted(keys)
	}
	dense := make([]int64, 400)
	for i := range dense {
		dense[i] = int64(i)
	}
	oneBucket := append(slices.Clone(dense[:40]), 1<<50)
	return map[string][]int64{
		"empty":       nil,
		"single":      {42},
		"int64-ends":  {math.MinInt64, math.MaxInt64},
		"dense":       dense,
		"one-bucket":  oneBucket,
		"random-4x":   random(500, 2000),
		"random-wide": random(500, math.MaxInt64),
	}
}

// FuzzSortedKeys: any key set, any edit — every probe equals sort.Search, and
// insert and delete ApplyDelta give the bytes Preprocess gives the edited set.
// The set is also sorted and laid out in k parts, k from 1 to 8 drawn by the
// fuzzer, which must give the one-part keys and bytes.
func FuzzSortedKeys(f *testing.F) {
	for _, keys := range keyShapes() {
		keys = keys[:min(len(keys), 48)] // small seeds keep minimising quick
		f.Add(fuzzKeyBytes(keys), fuzzKeyBytes(nil), uint8(0))
		f.Add(fuzzKeyBytes(keys), fuzzKeyBytes([]int64{math.MinInt64, -1, 0, 5, 1 << 40, math.MaxInt64}), uint8(2))
		if len(keys) > 2 {
			f.Add(fuzzKeyBytes(keys), fuzzKeyBytes([]int64{keys[0], keys[len(keys)/2], keys[len(keys)-1]}), uint8(6))
			f.Add(fuzzKeyBytes(keys), fuzzKeyBytes([]int64{keys[len(keys)/3] + 1, keys[len(keys)/2]}), uint8(1))
		}
	}
	f.Fuzz(func(t *testing.T, set, edit []byte, k uint8) {
		keys := dedupSorted(fuzzKeys(set))
		pd := mustKeyFile(t, keys)
		checkParts(t, fuzzKeys(set), 1+int(k%8))
		checkProbes(t, pd, keys)
		checkEdit(t, pd, keys, fuzzKeys(edit))
	})
}

// checkParts holds the sort of keys (a copy) and the key file of the result
// in k parts to the one-part ones: the same distinct keys, a prefix of the
// caller's slice with the rest zeroed, and the same bytes.
func checkParts(t *testing.T, keys []int64, k int) {
	t.Helper()
	want := dedupSortedParts(slices.Clone(keys), 1)
	in := slices.Clone(keys)
	got := dedupSortedParts(in, k)
	if !slices.Equal(got, want) {
		t.Fatalf("%d keys in %d parts: %d distinct, one part %d", len(keys), k, len(got), len(want))
	}
	if len(got) > 0 && &got[0] != &in[0] || slices.ContainsFunc(in[len(got):], func(x int64) bool { return x != 0 }) {
		t.Fatalf("%d keys in %d parts: the result is not a prefix of the caller's slice with the rest zeroed", len(keys), k)
	}
	wantPi, wantErr := keyFileParts(want, 1)
	gotPi, err := keyFileParts(want, k)
	if !bytes.Equal(gotPi, wantPi) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%d keys in %d parts: Π %x (%v), one part %x (%v)", len(want), k, gotPi, err, wantPi, wantErr)
	}
}

// TestKeyPartsMatchOnePart runs checkParts at k = 2, 3 and 7 on the key sets
// whose cuts fall awkwardly: keys on both sides of every bitmap word edge, a
// dense run whose file has L = 0, fewer keys than a high word holds (every
// part in one word, which they all share), the point workload's shape, the
// dense shapes at both ends of int64, a wide set (radix passes after the
// first), and every shape keyShapes has.
func TestKeyPartsMatchOnePart(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	sets := map[string][]int64{}
	for name, keys := range keyShapes() {
		sets["shape-"+name] = keys
	}
	var edges []int64
	for w := int64(1); w <= 40; w++ {
		edges = append(edges, -5000+64*w-1, -5000+64*w)
	}
	for range 300 {
		edges = append(edges, -5000+rng.Int63n(64*41))
	}
	sets["word-edges"] = edges
	run := make([]int64, 1000)
	for i := range run {
		run[i] = int64(len(run) - i)
	}
	sets["dense-L0"] = run
	sets["one-high-word"] = []int64{9, 3, 7, 1, 5, 2}
	point := make([]int64, 1<<14)
	for i := range point {
		point[i] = rng.Int63n(1 << 16)
	}
	sets["point"] = point
	for name, base := range map[string]int64{"at-min": math.MinInt64, "to-max": math.MaxInt64 - 3000} {
		keys := make([]int64, 600)
		for i := range keys {
			keys[i] = base + rng.Int63n(3001)
		}
		sets[name] = keys
	}
	wide := make([]int64, 700)
	for i := range wide {
		wide[i] = rng.Int63() - rng.Int63()
	}
	sets["wide"] = wide
	for name, keys := range sets {
		for _, k := range []int{2, 3, 7} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) { checkParts(t, keys, k) })
		}
	}
	// Out of order, in one part or across the edge between two, is refused
	// whatever k is.
	for _, bad := range [][]int64{{1, 2, 3, 5, 4, 6, 7, 8}, {1, 2, 3, 4, 4, 5, 6, 7}} {
		for _, k := range []int{1, 2, 3, 7} {
			if _, err := keyFileParts(bad, k); err == nil {
				t.Fatalf("%v in %d parts: laid out", bad, k)
			}
		}
	}
}

// TestPreprocessPartsMatchOnePart: Π of the point scheme, the column sorted
// and laid out in k parts, is the bytes Preprocess gives.
func TestPreprocessPartsMatchOnePart(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	keys := make([]int64, 1<<15)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 17)
	}
	d := RelationFromKeys(keys)
	want, err := PointSelectionScheme().Preprocess(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 7} {
		col, err := relation.Int64Column(d, "key")
		if err != nil {
			t.Fatal(err)
		}
		got, err := keyFileParts(dedupSortedParts(col, k), k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("k=%d: Π differs from Preprocess's (%v)", k, err)
		}
	}
}

// TestKeysDeltaTakesBothPaths walks random insert and delete batches over
// every shape and checks each maintained file byte for byte (checkEdit),
// requiring that the walk splices (L kept) and merges (L changed) both.
func TestKeysDeltaTakesBothPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var splices, merges int
	for name, keys := range keyShapes() {
		pd := mustKeyFile(t, keys)
		for step := 0; step < 12; step++ {
			var edit []int64
			for range 1 + rng.Intn(40) {
				if len(keys) > 0 && rng.Intn(2) == 0 {
					edit = append(edit, keys[rng.Intn(len(keys))]) // present
				} else if len(keys) > 0 {
					edit = append(edit, keys[rng.Intn(len(keys))]+int64(rng.Intn(7))-3) // near
				} else {
					edit = append(edit, rng.Int63()-rng.Int63())
				}
			}
			for _, kept := range checkEdit(t, pd, keys, edit) {
				if kept {
					splices++
				} else {
					merges++
				}
			}
			// Walk on from the insert or the delete, alternately.
			if step%2 == 0 {
				keys = dedupSorted(append(keys, edit...))
			} else {
				keys = without(keys, edit)
			}
			pd = mustKeyFile(t, keys)
			checkProbes(t, pd, keys)
		}
		t.Logf("%s: walked to %d keys", name, len(keys))
	}
	if splices == 0 || merges == 0 {
		t.Fatalf("%d splices and %d merges; the walk must take both paths", splices, merges)
	}
	t.Logf("%d splices, %d merges", splices, merges)
}

// TestKeyFileSize pins the point of the layout on the benchmark's key
// workload: 2²⁰ keys drawn below 2²², ≈ 928 000 distinct, take L = 2 and well
// under a byte each, where fixed-width records took eight.
func TestKeyFileSize(t *testing.T) {
	rng := rand.New(rand.NewSource(2501))
	keys := make([]int64, 1<<20)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 22)
	}
	keys = dedupSorted(keys)
	pd, err := keyFileBytes(keys)
	if err != nil {
		t.Fatal(err)
	}
	f, err := parseKeyFile(pd)
	if err != nil {
		t.Fatal(err)
	}
	if f.l != 2 || len(pd) > 5*len(keys)/8+32<<10 {
		t.Fatalf("%d keys: L = %d, Π is %d bytes (%.2f bits a key), want L = 2 and ≤ 5 bits a key plus the samples", len(keys), f.l, len(pd), 8*float64(len(pd))/float64(len(keys)))
	}
	t.Logf("%d keys: Π is %d bytes, %.2f bits a key", len(keys), len(pd), 8*float64(len(pd))/float64(len(keys)))
}

// FuzzSortedKeysDecode: arbitrary bytes as Π never panic Prepare, the point
// and range probes or ApplyDelta, and on any Π Prepare accepts whose keys a
// sequential read of the file (keyFile.reader) takes in, every point and
// range verdict is the one those keys give.
func FuzzSortedKeysDecode(f *testing.F) {
	for _, keys := range keyShapes() {
		keys = keys[:min(len(keys), 48)]
		pd := mustKeyFile(f, keys)
		f.Add(pd)
		f.Add(pd[:len(pd)/2])
		f.Add(pd[:min(len(pd), keyHeaderLen)])
		old := make([]byte, 0, 8*len(keys)) // the fixed-width layout
		for _, k := range keys {
			old = binary.BigEndian.AppendUint64(old, biasKey(k))
		}
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, pd []byte) {
		_, _ = applyKeysDelta(pd, KeysDelta([]int64{-3, 0, 7, 1 << 40}))
		_, _ = applyKeysDelta(pd, KeysDeleteDelta([]int64{-3, 0, 7, 1 << 40}))
		qs := []int64{math.MinInt64, -1, 0, 1, 7, math.MaxInt64}
		if f, err := parseKeyFile(pd); err == nil {
			_, _ = applyKeysDelta(pd, KeysDeleteDelta([]int64{int64(f.min ^ 1<<63), int64(f.max ^ 1<<63)}))
			for _, x := range []uint64{f.min, f.max, f.origin} {
				qs = append(qs, int64(x^1<<63)-1, int64(x^1<<63), int64(x^1<<63)+1)
			}
		}
		// keys is nil unless the whole file reads in order.
		var keys []int64
		if f, err := parseKeyFile(pd); err == nil {
			xs := make([]uint64, f.n)
			if f.reader().read(xs) == nil {
				keys = make([]int64, len(xs))
				for i, x := range xs {
					keys[i] = int64(x ^ 1<<63)
				}
			}
		}
		// first reports the least key ≥ x.
		first := func(x int64) (int64, bool) {
			i, _ := slices.BinarySearch(keys, x)
			if i == len(keys) {
				return 0, false
			}
			return keys[i], true
		}
		for _, c := range []struct {
			scheme *core.Scheme
			query  func(i int) []byte
			want   func(i int) bool
		}{
			{PointSelectionScheme(), func(i int) []byte { return PointQuery(qs[i]) }, func(i int) bool {
				k, ok := first(qs[i])
				return ok && k == qs[i]
			}},
			{PointSelectionScheme(), func(i int) []byte { return RangeQuery(qs[i], qs[(i+1)%len(qs)]) }, func(i int) bool {
				lo, hi := qs[i], qs[(i+1)%len(qs)]
				k, ok := first(lo)
				return lo <= hi && ok && k <= hi
			}},
		} {
			prep, err := c.scheme.Prepare(pd)
			if err != nil {
				continue
			}
			for i := range qs {
				got, probeErr := prep.Answer(c.query(i))
				if keys != nil && (probeErr != nil || got != c.want(i)) {
					t.Fatalf("%s: accepted Π of %d keys, query %d: prepared (%v, %v), the keys say %v", c.scheme.Name(), len(keys), i, got, probeErr, c.want(i))
				}
			}
		}
	})
}

// TestSortedDistinctMatchesSort holds dedupSorted — slices.Sort below
// radixMin keys, from there a bitmap when the keys are dense and an LSD radix
// sort when they are not — to slices.Sort and slices.Compact of a copy, on
// every length around both switches and one large one, in random, ascending
// and descending order. The key sets vary in every byte, in only the top or
// only the lowest, or not at all; the dense ones lie below 4n, in a window
// across zero, at MinInt64 or ending at MaxInt64, and three span 64n−64 (the
// widest bitmap), 64n and 64n+64 (the narrowest radix sorts). It also pins
// the contract: the result is a prefix of the caller's slice, which is sorted
// in place — Preprocess hands over its key column and pays no copy.
func TestSortedDistinctMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	// span draws keys in [base, base+span] with both ends present.
	span := func(base int64, width func(n int) int64) func(i, n int) int64 {
		return func(i, n int) int64 {
			w := width(n)
			switch i {
			case 0:
				return base
			case 1:
				return base + w
			}
			return base + rng.Int63n(w+1)
		}
	}
	shapes := map[string]func(i, n int) int64{
		"random":      func(int, int) int64 { return rng.Int63() - rng.Int63() },
		"negative":    func(int, int) int64 { return -rng.Int63n(1 << 20) },
		"int64-ends":  func(i, _ int) int64 { return []int64{math.MinInt64, math.MaxInt64, 0, -1}[i%4] },
		"all-equal":   func(int, int) int64 { return -12345 },
		"top-byte":    func(int, int) int64 { return int64(uint64(rng.Intn(256))<<56 | 0x00ab_cdef_0123_4567) },
		"lowest-byte": func(int, int) int64 { return 0x0123_4567_89ab_cd00 | int64(rng.Intn(256)) },
		"few":         func(int, int) int64 { return int64(rng.Intn(5)) << 40 },
		"below-4n":    func(_, n int) int64 { return rng.Int63n(4 * int64(n)) },
		"across-zero": span(-7, func(n int) int64 { return 32 * int64(n) }),
		"at-min":      span(math.MinInt64, func(n int) int64 { return 3 * int64(n) }),
		"to-max":      func(i, n int) int64 { return math.MaxInt64 - min(int64(i), rng.Int63n(3*int64(n))) }, // MaxInt64 first
		"span-64n-64": span(-1<<40, func(n int) int64 { return 64*int64(n) - 64 }),
		"span-64n":    span(-1<<40, func(n int) int64 { return 64 * int64(n) }),
		"span-64n+64": span(-1<<40, func(n int) int64 { return 64*int64(n) + 64 }),
	}
	for _, n := range []int{0, 1, 2, 255, 256, 257, 1 << 17} {
		for name, key := range shapes {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = key(i, n)
			}
			for _, order := range []string{"as drawn", "ascending", "descending"} {
				switch order {
				case "ascending":
					slices.Sort(keys)
				case "descending":
					slices.Reverse(keys)
				}
				want := slices.Compact(slices.Sorted(slices.Values(keys)))
				in := slices.Clone(keys)
				got := dedupSorted(in)
				if !slices.Equal(got, want) {
					t.Fatalf("%s, n=%d, %s: %d distinct keys, want %d", name, n, order, len(got), len(want))
				}
				if len(got) > 0 && &got[0] != &in[0] {
					t.Fatalf("%s, n=%d, %s: the result is not a prefix of the caller's slice", name, n, order)
				}
				if tail := in[len(got):]; slices.ContainsFunc(tail, func(k int64) bool { return k != 0 }) {
					t.Fatalf("%s, n=%d, %s: the slice past the result is not zeroed", name, n, order)
				}
			}
		}
	}
	// Both large paths sort in place: each allocates its one scratch — the
	// radix sort a slice of len(keys), the bitmap at most len(keys) words —
	// and nothing for the result.
	keys := make([]int64, 1<<17)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	work := make([]int64, len(keys))
	if allocs := testing.AllocsPerRun(5, func() {
		copy(work, keys)
		dedupSorted(work)
	}); allocs != 1 {
		t.Fatalf("radix sort of 2¹⁷ keys: %.0f allocations, want the one scratch slice", allocs)
	}
	dense := span(-1<<40, func(n int) int64 { return 64*int64(n) - 64 })
	for i := range keys {
		keys[i] = dense(i, len(keys))
	}
	if allocs := testing.AllocsPerRun(5, func() {
		copy(work, keys)
		dedupSorted(work)
	}); allocs != 1 {
		t.Fatalf("dense sort of 2¹⁷ keys: %.0f allocations, want the one bitmap", allocs)
	}
	// TotalAlloc is process-wide: another goroutine of the test binary can
	// allocate between the two reads (16 bytes has been seen), and that only
	// adds to dedupSorted's own, which is the same on every run. So, as
	// testing.AllocsPerRun does, measure on one P, and keep the least of a
	// few runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got := uint64(math.MaxUint64)
	for range 3 {
		copy(work, keys)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dedupSorted(work)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(8 * len(keys)); got > limit {
		t.Fatalf("dense sort of 2¹⁷ keys over a span of 64n−64: a %d-byte bitmap, want at most len(keys) words (%d bytes)", got, limit)
	}
}

// FuzzDedupSorted holds dedupSorted to slices.Sort and slices.Compact on
// radixMin keys and more, drawn by the fuzz bytes from [base, base+span]
// (wrapping past MaxInt64): as span moves across 64 keys a key, the sort
// moves between the bitmap and the radix passes. The keys are sorted in k
// parts, k from 1 to 8 drawn by the fuzzer. The result must be a prefix of
// the caller's slice.
func FuzzDedupSorted(f *testing.F) {
	f.Add(int64(0), uint64(4*radixMin), []byte{1, 2, 3}, uint8(0))
	f.Add(int64(-7), uint64(64*radixMin-64), []byte("dense"), uint8(1))
	f.Add(int64(-7), uint64(64*radixMin), []byte("radix"), uint8(2))
	f.Add(int64(math.MinInt64), uint64(100), []byte{0xff}, uint8(6))
	f.Add(int64(math.MaxInt64-1000), uint64(1000), []byte{0, 0, 0, 0, 0, 0, 0, 1}, uint8(3))
	f.Add(int64(math.MinInt64), uint64(math.MaxUint64), []byte("every key"), uint8(4))
	f.Fuzz(func(t *testing.T, base int64, span uint64, b []byte, k uint8) {
		keys := make([]int64, radixMin+min(len(b), 1<<12))
		for i := range keys {
			x := uint64(i) * 0x9e37_79b9_7f4a_7c15
			for j := range min(len(b), 8) {
				x ^= uint64(b[(i+j)%len(b)]) << (8 * j)
			}
			if span < math.MaxUint64 {
				x %= span + 1
			}
			keys[i] = int64(uint64(base) + x)
		}
		want := slices.Compact(slices.Sorted(slices.Values(keys)))
		got := dedupSortedParts(keys, 1+int(k%8))
		if !slices.Equal(got, want) {
			t.Fatalf("base %d, span %d, %d keys in %d parts: %d distinct, want %d", base, span, len(keys), 1+k%8, len(got), len(want))
		}
		if &got[0] != &keys[0] {
			t.Fatalf("base %d, span %d: the result is not a prefix of the caller's slice", base, span)
		}
	})
}
