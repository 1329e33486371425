package rmq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// crossCheck asserts that every querier answers every range identically to
// the naive scan, which is correct by construction.
func crossCheck(t *testing.T, a []int64, q Querier, name string) {
	t.Helper()
	naive := NewNaive(a)
	n := len(a)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			want := naive.Query(i, j)
			got := q.Query(i, j)
			if got != want {
				t.Fatalf("%s: Query(%d,%d) = %d (val %d), want %d (val %d); a=%v",
					name, i, j, got, a[got], want, a[want], a)
			}
		}
	}
}

func randArray(rng *rand.Rand, n, valueRange int) []int64 {
	a := make([]int64, n)
	for i := range a {
		a[i] = int64(rng.Intn(valueRange)) // small range forces ties
	}
	return a
}

func TestSparseMatchesNaiveExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		a := randArray(rng, 1+rng.Intn(60), 8)
		crossCheck(t, a, NewSparse(a), "sparse")
	}
}

func TestFischerHeunMatchesNaiveExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		a := randArray(rng, 1+rng.Intn(120), 6)
		for _, bs := range []int{0, 1, 2, 3, 5, 8} {
			crossCheck(t, a, NewFischerHeun(a, bs), "fischer-heun")
		}
	}
}

func TestFischerHeunQuick(t *testing.T) {
	f := func(raw []int8, bs uint8) bool {
		if len(raw) == 0 {
			return true
		}
		a := make([]int64, len(raw))
		for i, v := range raw {
			a[i] = int64(v)
		}
		q := NewFischerHeun(a, int(bs%10))
		naive := NewNaive(a)
		rng := rand.New(rand.NewSource(int64(len(raw))))
		for trial := 0; trial < 20; trial++ {
			i := rng.Intn(len(a))
			j := i + rng.Intn(len(a)-i)
			if q.Query(i, j) != naive.Query(i, j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTieBreaksLeftmost(t *testing.T) {
	a := []int64{5, 1, 3, 1, 1, 2}
	for _, q := range []Querier{NewNaive(a), NewSparse(a), NewFischerHeun(a, 2)} {
		if got := q.Query(0, 5); got != 1 {
			t.Errorf("%T Query(0,5) = %d, want leftmost 1", q, got)
		}
		if got := q.Query(2, 5); got != 3 {
			t.Errorf("%T Query(2,5) = %d, want leftmost 3", q, got)
		}
	}
}

func TestSingleElementAndFullRange(t *testing.T) {
	a := []int64{4}
	for _, q := range []Querier{NewNaive(a), NewSparse(a), NewFischerHeun(a, 0)} {
		if q.Query(0, 0) != 0 {
			t.Errorf("%T single element broken", q)
		}
	}
}

func TestQueryPanicsOutOfBounds(t *testing.T) {
	a := []int64{1, 2, 3}
	cases := [][2]int{{-1, 1}, {0, 3}, {2, 1}}
	for _, q := range []Querier{NewNaive(a), NewSparse(a), NewFischerHeun(a, 2)} {
		for _, c := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%T Query(%d,%d) did not panic", q, c[0], c[1])
					}
				}()
				q.Query(c[0], c[1])
			}()
		}
	}
}

func TestCartesianSignatureSharing(t *testing.T) {
	// Blocks with the same relative order must share a signature even with
	// different values; different shapes must differ.
	if cartesianSignature([]int64{1, 5, 3}) != cartesianSignature([]int64{10, 50, 30}) {
		t.Error("order-isomorphic blocks got different signatures")
	}
	if cartesianSignature([]int64{1, 2, 3}) == cartesianSignature([]int64{3, 2, 1}) {
		t.Error("distinct shapes share a signature")
	}
	// Signatures encode block length via their number of 1 bits, so blocks
	// of different lengths can never collide.
	if cartesianSignature([]int64{7}) == cartesianSignature([]int64{2, 1}) {
		t.Error("blocks of different length share a signature")
	}
}

func TestWordsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randArray(rng, 1<<14, 1000)
	naive, sparse, fh := NewNaive(a), NewSparse(a), NewFischerHeun(a, 0)
	if naive.Words() != 0 {
		t.Error("naive should report zero words")
	}
	if sparse.Words() <= 0 || fh.Words() <= 0 {
		t.Error("preprocessed structures should report positive words")
	}
	// The Fischer–Heun structure exists to use asymptotically less space
	// than the sparse table; at n=16384 the gap must already be visible.
	if fh.Words() >= sparse.Words() {
		t.Errorf("fischer-heun words %d not below sparse words %d", fh.Words(), sparse.Words())
	}
}

func TestEmptyArrayConstruction(t *testing.T) {
	// Construction on empty arrays must not panic (queries on them are
	// invalid and panic per contract).
	NewSparse(nil)
	NewFischerHeun(nil, 0)
}

func TestFischerHeunBlockSizeClamped(t *testing.T) {
	a := make([]int64, 64)
	f := NewFischerHeun(a, 100)
	if f.blockSize > 15 {
		t.Fatalf("block size %d exceeds signature capacity", f.blockSize)
	}
}
