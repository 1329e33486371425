package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parityScheme answers "is the query integer's bit count even, offset by
// the preprocessed byte"; queries equal to poison return an error. It is
// cheap, deterministic, and stateless — ideal for exercising the batch
// machinery itself.
func parityScheme(poison uint64) *Scheme {
	return &Scheme{
		SchemeName: "test/parity",
		Preprocess: func(d []byte) ([]byte, error) { return d, nil },
		Prepare: ProbeInPlace(func(pd, q []byte) (bool, error) {
			vs, err := DecodeUint64(q, 1)
			if err != nil {
				return false, err
			}
			v := vs[0]
			if v == poison {
				return false, fmt.Errorf("poisoned query %d", v)
			}
			bits := 0
			for x := v; x != 0; x >>= 1 {
				bits += int(x & 1)
			}
			return (bits+len(pd))%2 == 0, nil
		}),
	}
}

func batchQueries(n int) [][]byte {
	qs := make([][]byte, n)
	for i := range qs {
		qs[i] = EncodeUint64(uint64(i * 2654435761))
	}
	return qs
}

// TestAnswerBatchMatchesSequential: for every parallelism level, the batch
// verdicts must equal the one-at-a-time loop, in query order.
func TestAnswerBatchMatchesSequential(t *testing.T) {
	s := parityScheme(^uint64(0))
	pd := []byte{1}
	queries := batchQueries(523)
	want := make([]bool, len(queries))
	for i, q := range queries {
		got, err := s.Answer(pd, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = got
	}
	for _, par := range []int{-1, 0, 1, 2, 3, 8, 64, 1000} {
		got, err := s.AnswerBatch(pd, queries, par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d results, want %d", par, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: query %d: batch %v, sequential %v", par, i, got[i], want[i])
			}
		}
	}
}

func TestAnswerBatchEmpty(t *testing.T) {
	s := parityScheme(0)
	got, err := s.AnswerBatch(nil, nil, 8)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: results=%v err=%v", got, err)
	}
}

// TestAnswerBatchErrorPropagation: a failing query aborts the batch and
// the error names the scheme and the query index.
func TestAnswerBatchErrorPropagation(t *testing.T) {
	const poison = uint64(77 * 2654435761)
	s := parityScheme(poison) // query index 77 fails
	queries := batchQueries(200)
	for _, par := range []int{1, 4} {
		got, err := s.AnswerBatch(nil, queries, par)
		if err == nil {
			t.Fatalf("parallelism %d: poisoned batch succeeded", par)
		}
		if got != nil {
			t.Fatalf("parallelism %d: partial results returned alongside error", par)
		}
		if !strings.Contains(err.Error(), "query 77") || !strings.Contains(err.Error(), s.SchemeName) {
			t.Fatalf("parallelism %d: error %q does not name scheme and query index", par, err)
		}
	}
}

// TestAnswerBatchConcurrentCallers: many goroutines batching against one
// preprocessed store at once — the serving pattern — must stay correct
// under the race detector.
func TestAnswerBatchConcurrentCallers(t *testing.T) {
	s := parityScheme(^uint64(0))
	pd := []byte{0, 1}
	queries := batchQueries(64)
	want, err := s.AnswerBatch(pd, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.AnswerBatch(pd, queries, 4)
			if err != nil {
				errc <- err
				return
			}
			for i := range want {
				if got[i] != want[i] {
					errc <- fmt.Errorf("query %d diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestApplyBatchMatchesSequential covers the function-scheme variant.
func TestApplyBatchMatchesSequential(t *testing.T) {
	s := &FuncScheme{
		SchemeName: "test/double",
		Preprocess: func(d []byte) ([]byte, error) { return d, nil },
		Apply: func(pd, q []byte) ([]byte, error) {
			vs, err := DecodeUint64(q, 1)
			if err != nil {
				return nil, err
			}
			v := vs[0]
			if v%97 == 13 {
				return nil, errors.New("unlucky")
			}
			return EncodeUint64(2 * v), nil
		},
	}
	queries := make([][]byte, 150)
	for i := range queries {
		queries[i] = EncodeUint64(uint64(i * 97)) // v%97 == 0: never unlucky
	}
	want := make([][]byte, len(queries))
	for i, q := range queries {
		out, err := s.Apply(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	got, err := s.ApplyBatch(nil, queries, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("query %d: batch %x, sequential %x", i, got[i], want[i])
		}
	}
	// And the failing path.
	bad := [][]byte{EncodeUint64(13)}
	if _, err := s.ApplyBatch(nil, bad, 3); err == nil {
		t.Fatal("poisoned ApplyBatch succeeded")
	}
}

// TestAnswerPoolChunks pins the pool's contract at every chunk boundary and
// at more workers than chunks: verdicts in query order, the error of the
// lowest failing index whichever worker met which failure first, and a
// cancelled context that stops the batch with its error wrapped. Queries
// are their own index, so a verdict answered into the wrong slot shows.
func TestAnswerPoolChunks(t *testing.T) {
	verdict := func(i uint64) bool { return i%3 == 1 }
	for _, n := range []int{0, 1, 63, 64, 65, 1023, 1024, 1025} {
		queries := make([][]byte, n)
		for i := range queries {
			queries[i] = EncodeUint64(uint64(i))
		}
		index := func(q []byte) uint64 {
			vs, err := DecodeUint64(q, 1)
			if err != nil {
				t.Fatal(err)
			}
			return vs[0]
		}
		for _, par := range []int{1, 2, 3, 256} {
			name := fmt.Sprintf("n=%d/par=%d", n, par)
			got, err := AnswerBatchPrepared(nil, "test/pool", AnswererFunc(func(q []byte) (bool, error) {
				return verdict(index(q)), nil
			}), queries, par)
			if err != nil || len(got) != n {
				t.Fatalf("%s: %d results, err %v", name, len(got), err)
			}
			for i, v := range got {
				if v != verdict(uint64(i)) {
					t.Fatalf("%s: verdict %d out of order", name, i)
				}
			}

			for _, planted := range [][]int{{n - 1}, {n - 1, 0}, {n / 2, n - 1, n/2 + 1}, {n - 1, 64, 3}, {130, 65}} {
				fail := map[uint64]bool{}
				lowest := n
				for _, i := range planted {
					if i >= 0 && i < n {
						fail[uint64(i)] = true
						lowest = min(lowest, i)
					}
				}
				if lowest == n {
					continue
				}
				got, err := AnswerBatchPrepared(nil, "test/pool", AnswererFunc(func(q []byte) (bool, error) {
					if i := index(q); fail[i] {
						return false, fmt.Errorf("planted %d", i)
					}
					return true, nil
				}), queries, par)
				want := fmt.Sprintf("scheme test/pool: batch query %d: planted %d", lowest, lowest)
				if got != nil || err == nil || err.Error() != want {
					t.Fatalf("%s: failures at %v: %d results, err %v; want %q", name, planted, len(got), err, want)
				}
			}

			if n < 2 {
				continue
			}
			// The context is cancelled inside probe k+1, half way through;
			// every worker checks it before its next probe, so once cancel
			// has returned at most one probe per other worker follows. The
			// others may count probes between probe k+1's count and its
			// cancel, so the bound starts from the count read after cancel.
			ctx, cancel := context.WithCancel(context.Background())
			k := int64(n / 2)
			var calls, atCancel atomic.Int64
			got, err = AnswerBatchPrepared(ctx, "test/pool", AnswererFunc(func(q []byte) (bool, error) {
				if calls.Add(1) == k+1 {
					cancel()
					atCancel.Store(calls.Load())
				}
				return true, nil
			}), queries, par)
			cancel()
			c, at := calls.Load(), atCancel.Load()
			if c > at+int64(par)-1 {
				t.Fatalf("%s: %d probes after cancelling in probe %d, %d counted when the cancel returned", name, c, k+1, at)
			}
			// Every probe may have passed its check before the cancel took
			// effect; the batch is then whole, and the bound above allowed it.
			if err == nil && len(got) == n && c == int64(n) {
				continue
			}
			if got != nil || !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "scheme test/pool: batch query ") {
				t.Fatalf("%s: cancelled batch: %d results, err %v", name, len(got), err)
			}
		}
	}
	// An already-cancelled context fails at the lowest index without a probe.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := slices.Repeat([][]byte{EncodeUint64(1)}, 300)
	_, err := AnswerBatchPrepared(ctx, "test/pool", AnswererFunc(func([]byte) (bool, error) {
		t.Fatal("probe under a cancelled context")
		return false, nil
	}), queries, 4)
	if want := "scheme test/pool: batch query 0: context canceled"; err == nil || err.Error() != want {
		t.Fatalf("cancelled before the first probe: %v, want %q", err, want)
	}
}

// TestAnswerPoolSpreadsSmallBatches pins that a batch smaller than a chunk
// per worker is still shared out: each batch's first two probes wait for
// each other, which only two workers can satisfy.
func TestAnswerPoolSpreadsSmallBatches(t *testing.T) {
	for _, n := range []int{2, 64, 100} {
		var entered atomic.Int64
		both := make(chan struct{})
		queries := slices.Repeat([][]byte{EncodeUint64(1)}, n)
		_, err := AnswerBatchPrepared(nil, "test/pool", AnswererFunc(func([]byte) (bool, error) {
			switch entered.Add(1) {
			case 1:
				select {
				case <-both:
				case <-time.After(5 * time.Second):
					return false, errors.New("no second worker")
				}
			case 2:
				close(both)
			}
			return true, nil
		}), queries, 2)
		if err != nil {
			t.Fatalf("n=%d, parallelism 2: %v", n, err)
		}
	}
}

// TestAnswerPoolRecoversPanics pins that a probe's panic fails its query,
// not the process: the batch reports "batch query i: panicked: …" at the
// lowest failing index, whether the lowest is the panic or an error, and no
// probe is still running once the pool has returned.
func TestAnswerPoolRecoversPanics(t *testing.T) {
	queries := make([][]byte, 300)
	for i := range queries {
		queries[i] = EncodeUint64(uint64(i))
	}
	for _, par := range []int{1, 4} {
		for _, tc := range []struct {
			panics, fails int
			want          string
		}{
			{130, -1, "batch query 130: panicked: planted 130"},
			{0, 299, "batch query 0: panicked: planted 0"},
			{200, 65, "batch query 65: failed 65"},
			{65, 200, "batch query 65: panicked: planted 65"},
		} {
			var running atomic.Int64
			got, err := AnswerBatchPrepared(nil, "test/pool", AnswererFunc(func(q []byte) (bool, error) {
				running.Add(1)
				defer running.Add(-1)
				vs, _ := DecodeUint64(q, 1)
				switch int(vs[0]) {
				case tc.panics:
					panic(fmt.Sprintf("planted %d", vs[0]))
				case tc.fails:
					return false, fmt.Errorf("failed %d", vs[0])
				}
				return true, nil
			}), queries, par)
			if want := "scheme test/pool: " + tc.want; got != nil || err == nil || err.Error() != want {
				t.Fatalf("par %d, panic at %d, error at %d: %d results, err %v; want %q", par, tc.panics, tc.fails, len(got), err, want)
			}
			if n := running.Load(); n != 0 {
				t.Fatalf("par %d: %d probes still running after the pool returned", par, n)
			}
			if panicked := strings.Contains(tc.want, "panicked"); errors.Is(err, ErrProbePanicked) != panicked {
				t.Fatalf("par %d: errors.Is(%v, ErrProbePanicked) = %v, want %v", par, err, !panicked, panicked)
			}
		}
	}
}
