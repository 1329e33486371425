package parts

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestCutCoversEveryItem: the k parts of n items are contiguous, cover
// [0, n) and differ in size by one item at most, empty parts included when
// k > n.
func TestCutCoversEveryItem(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000, 1 << 20} {
		for _, k := range []int{1, 2, 3, 7, 8} {
			lo, hi := n, 0
			for j := range k {
				a, b := Cut(n, k, j), Cut(n, k, j+1)
				if j == 0 && a != 0 || b < a {
					t.Fatalf("n=%d k=%d: part %d is [%d, %d)", n, k, j, a, b)
				}
				lo, hi = min(lo, b-a), max(hi, b-a)
			}
			if Cut(n, k, k) != n || hi-lo > 1 {
				t.Fatalf("n=%d k=%d: parts end at %d, sizes from %d to %d", n, k, Cut(n, k, k), lo, hi)
			}
		}
	}
}

// TestRunCallsEveryPartOnce and Fold joins what the parts return left to
// right.
func TestRunCallsEveryPartOnce(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7} {
		calls := make([]atomic.Int32, k)
		Run(k, calls, func(calls []atomic.Int32, j int) { calls[j].Add(1) })
		for j := range calls {
			if n := calls[j].Load(); n != 1 {
				t.Fatalf("k=%d: part %d called %d times", k, j, n)
			}
		}
		got := Fold(k, "p", func(s string, j int) string { return fmt.Sprint(s, j) },
			func(a, b string) string { return a + b })
		want := ""
		for j := range k {
			want += fmt.Sprint("p", j)
		}
		if got != want {
			t.Fatalf("k=%d: Fold joined %q, want %q", k, got, want)
		}
	}
}

// TestOnePartAllocatesNothing: at k = 1 Run and Fold are the call of part 0
// — no goroutine, no allocation — so a kernel's one-part case costs what
// the kernel costs.
func TestOnePartAllocatesNothing(t *testing.T) {
	keys := make([]int64, 64)
	if allocs := testing.AllocsPerRun(10, func() {
		Run(1, keys, func(keys []int64, j int) { keys[j]++ })
		_ = Fold(1, keys, func(keys []int64, j int) int64 { return keys[j] }, func(a, b int64) int64 { return a + b })
	}); allocs != 0 {
		t.Fatalf("one part: %.0f allocations, want none", allocs)
	}
}

// TestForKeepsSmallInputsWhole: an input under two floors is one part, one
// P runs one part, and no input is cut into more parts than perP a P or one
// a floor.
func TestForKeepsSmallInputsWhole(t *testing.T) {
	if k := For(2*Floor - 1); k != 1 {
		t.Fatalf("For(2·Floor−1) = %d, want 1", k)
	}
	for _, n := range []int{0, 2 * Floor, 5 * Floor, 1 << 30} {
		p := runtime.GOMAXPROCS(0)
		if k := For(n); k < 1 || k > perP*p || k > max(1, n/Floor) || p == 1 && k != 1 {
			t.Fatalf("For(%d) = %d with %d Ps", n, k, p)
		}
	}
}
