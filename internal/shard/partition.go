package shard

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Assignment is a frozen mapping from element keys to shards. It is
// produced once at partitioning time by a Partitioner, used by Split to cut
// the dataset, by Route to find a query's owning shard, and persisted in
// the shard manifest (Encode/DecodeAssignment) so a restarted process
// routes exactly as the one that preprocessed.
type Assignment interface {
	// Shards reports the shard count n.
	Shards() int
	// Shard maps a key to its owning shard in [0, n).
	Shard(key int64) int
	// Encode renders the assignment for the manifest; DecodeAssignment
	// reverses it.
	Encode() []byte
}

// RangeOwner is an optional Assignment refinement: assignments that place
// contiguous key ranges on single shards (range partitioning) can route a
// [lo, hi] query to one shard instead of fanning out.
type RangeOwner interface {
	// OwnerOfRange returns the shard owning every key in [lo, hi], or -1
	// when the range spans shards.
	OwnerOfRange(lo, hi int64) int
}

// Partitioner plans how a dataset's element keys spread over n shards.
// Partitioners are scheme-agnostic: the per-scheme Sharding descriptor's
// Split extracts the keys and re-encodes the parts; the partitioner only
// decides ownership.
type Partitioner interface {
	// Name identifies the partitioner in manifests and the HTTP API
	// ("hash", "range").
	Name() string
	// Plan inspects the dataset's element keys once and freezes an
	// assignment of keys to n shards.
	Plan(keys []int64, n int) (Assignment, error)
}

// assignment encoding tags.
const (
	hashAssignmentTag  = 'h'
	rangeAssignmentTag = 'r'
)

// --- hash partitioning --------------------------------------------------------

// HashPartitioner spreads keys by a 64-bit FNV-1a hash modulo n: balanced
// for any key distribution, but range queries cannot be routed and always
// fan out.
type HashPartitioner struct{}

// Name implements Partitioner.
func (HashPartitioner) Name() string { return "hash" }

// Plan implements Partitioner; the assignment depends only on n, never on
// the keys, so re-planning after a restart is trivially consistent.
func (HashPartitioner) Plan(keys []int64, n int) (Assignment, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: hash partitioner: shard count %d < 1", n)
	}
	return hashAssignment{n: n}, nil
}

type hashAssignment struct{ n int }

func (a hashAssignment) Shards() int { return a.n }

// fnv1a64 hashes the 8 big-endian bytes of key with FNV-1a, inline: Shard
// sits on the per-query route path (and runs once per portal in fan-out
// merges), so it must not allocate a hash.Hash64 per call.
func fnv1a64(key int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for shift := 56; shift >= 0; shift -= 8 {
		h ^= uint64(key) >> shift & 0xff
		h *= prime64
	}
	return h
}

func (a hashAssignment) Shard(key int64) int {
	return int(fnv1a64(key) % uint64(a.n))
}

func (a hashAssignment) Encode() []byte {
	b := []byte{hashAssignmentTag}
	return binary.AppendUvarint(b, uint64(a.n))
}

// --- range partitioning -------------------------------------------------------

// RangePartitioner cuts the sorted key space at n-1 quantile boundaries:
// each shard owns a contiguous key range of roughly equal population, so
// range queries inside one bucket route to a single shard. Skewed or
// duplicate-heavy key sets degrade gracefully (some shards may be empty).
type RangePartitioner struct{}

// Name implements Partitioner.
func (RangePartitioner) Name() string { return "range" }

// Plan implements Partitioner: sort a copy of the keys and take the n-1
// equidistant order statistics as inclusive upper bounds.
func (RangePartitioner) Plan(keys []int64, n int) (Assignment, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: range partitioner: shard count %d < 1", n)
	}
	sorted := append([]int64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	bounds := make([]int64, 0, n-1)
	for i := 1; i < n; i++ {
		var b int64
		if len(sorted) == 0 {
			b = 0
		} else {
			idx := i*len(sorted)/n - 1
			if idx < 0 {
				idx = 0
			}
			b = sorted[idx]
		}
		bounds = append(bounds, b)
	}
	return rangeAssignment{bounds: bounds}, nil
}

// rangeAssignment owns keys ≤ bounds[0] on shard 0, keys in
// (bounds[i-1], bounds[i]] on shard i, and keys > bounds[n-2] on shard n-1.
type rangeAssignment struct{ bounds []int64 }

func (a rangeAssignment) Shards() int { return len(a.bounds) + 1 }

func (a rangeAssignment) Shard(key int64) int {
	return sort.Search(len(a.bounds), func(i int) bool { return key <= a.bounds[i] })
}

// OwnerOfRange implements RangeOwner: buckets are contiguous, so lo and hi
// landing on the same shard means every key between them does too.
func (a rangeAssignment) OwnerOfRange(lo, hi int64) int {
	if s := a.Shard(lo); s == a.Shard(hi) {
		return s
	}
	return -1
}

func (a rangeAssignment) Encode() []byte {
	b := []byte{rangeAssignmentTag}
	b = binary.AppendUvarint(b, uint64(len(a.bounds)))
	for _, v := range a.bounds {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// DecodeAssignment parses an Assignment persisted by Encode. Hostile or
// truncated input is an error, never a panic.
func DecodeAssignment(b []byte) (Assignment, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("shard: empty assignment encoding")
	}
	switch b[0] {
	case hashAssignmentTag:
		n, k := binary.Uvarint(b[1:])
		if k <= 0 || 1+k != len(b) || n < 1 {
			return nil, fmt.Errorf("shard: corrupt hash assignment")
		}
		return hashAssignment{n: int(n)}, nil
	case rangeAssignmentTag:
		off := 1
		cnt, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return nil, fmt.Errorf("shard: corrupt range assignment header")
		}
		off += k
		// Each bound takes at least one byte; reject hostile counts before
		// allocating.
		if cnt > uint64(len(b)-off) {
			return nil, fmt.Errorf("shard: range assignment claims %d bounds in %d bytes", cnt, len(b)-off)
		}
		bounds := make([]int64, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			v, k := binary.Varint(b[off:])
			if k <= 0 {
				return nil, fmt.Errorf("shard: corrupt range assignment bound %d", i)
			}
			off += k
			bounds = append(bounds, v)
		}
		if off != len(b) {
			return nil, fmt.Errorf("shard: %d trailing assignment bytes", len(b)-off)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] < bounds[i-1] {
				return nil, fmt.Errorf("shard: range assignment bounds out of order")
			}
		}
		return rangeAssignment{bounds: bounds}, nil
	default:
		return nil, fmt.Errorf("shard: unknown assignment tag %q", b[0])
	}
}

// PartitionerByName resolves the partitioner names accepted by the HTTP
// API and the CLI.
func PartitionerByName(name string) (Partitioner, error) {
	switch name {
	case "", "hash":
		return HashPartitioner{}, nil
	case "range":
		return RangePartitioner{}, nil
	default:
		return nil, fmt.Errorf("shard: unknown partitioner %q (have hash, range)", name)
	}
}
