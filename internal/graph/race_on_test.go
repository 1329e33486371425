//go:build race

package graph

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// on purpose, so "no allocation once the pool is warm" cannot be measured.
const raceEnabled = true
