// Package parts runs a per-byte kernel over k contiguous parts of its input
// at once, a few parts per P: the fork and the join the set-up kernels share
// (the registration body's base64, the relation's key column, the dense key
// sort and the key file's layout). A kernel is written once, over part j of
// k; at k = 1 it is the whole input on the caller's goroutine, with nothing
// started and nothing allocated for the fork.
package parts

import (
	"runtime"
	"sync"
)

// Floor is the least input, in bytes, one part is given: below it a
// goroutine's start and join are no longer small against the part's own
// work, so an input under 2·Floor — every graph and every delta the serving
// mixes send — stays one part.
const Floor = 1 << 18

// For returns how many parts a kernel over n bytes of input runs in: one
// for an input under 2·Floor or on one P, else perP a P
// (runtime.GOMAXPROCS), each at least Floor bytes.
func For(n int) int {
	if n < 2*Floor {
		return 1
	}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return min(perP*p, n/Floor)
	}
	return 1
}

// perP is how many parts For gives each P. A part's goroutine can queue
// behind other work for the whole of it — the registry hashes D on a
// goroutine of its own while the key column is read, a collection runs its
// workers, a shared box takes a vCPU away — and the join waits for the last
// part. With four parts a P, a P that is free takes up the parts the busy
// one has not started, and a late part holds the join a quarter as long.
const perP = 4

// Cut returns where part j of k starts in n items — part j is
// [Cut(n, k, j), Cut(n, k, j+1)) — so the parts differ in size by one item
// at most and Cut(n, k, k) is n.
func Cut(n, k, j int) int { return int(uint64(n) * uint64(j) / uint64(k)) }

// Run calls part(s, j) for every j in [0, k) and returns once every call
// has: parts 1 to k−1 each on a goroutine of its own, part 0 on the
// caller's. s is handed to every part by value and part is a declared
// function, not a closure, so at k = 1 Run is the call part(s, 0) and
// allocates nothing; the parts share what s points to and write disjoint
// pieces of it.
func Run[S any](k int, s S, part func(s S, j int)) {
	if k <= 1 {
		part(s, 0)
		return
	}
	fork(k, func(j int) { part(s, j) })
}

// Fold is Run for parts that return a value: what they return, folded left
// to right by join once every part has returned — a sum, a conjunction, or
// a check that each part begins where the one before it ended. At k = 1 it
// is part(s, 0), and join is not called.
func Fold[S, R any](k int, s S, part func(s S, j int) R, join func(left, right R) R) R {
	if k <= 1 {
		return part(s, 0)
	}
	rs := make([]R, k)
	fork(k, func(j int) { rs[j] = part(s, j) })
	for _, r := range rs[1:] {
		rs[0] = join(rs[0], r)
	}
	return rs[0]
}

// fork calls f(j) for every j in [0, k), k > 1, as Run does.
func fork(k int, f func(j int)) {
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for j := 1; j < k; j++ {
		go func() {
			defer wg.Done()
			f(j)
		}()
	}
	f(0)
	wg.Wait()
}
