package shard

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// rangeAssignmentTag opens an encoded Assignment.
const rangeAssignmentTag = 'r'

// RangePartitioner is the one partitioner: it cuts the sorted key space at
// n-1 quantile boundaries, so each shard owns a contiguous key range of
// roughly equal population and a range query inside one bucket routes to a
// single shard. Skewed or duplicate-heavy key sets degrade gracefully (some
// shards may be empty).
type RangePartitioner struct{}

// Name identifies the partitioner in the file's layout field and the HTTP
// API.
func (RangePartitioner) Name() string { return "range" }

// Plan sorts a copy of the keys and takes the n-1 equidistant order
// statistics as inclusive upper bounds; with no keys every bound is 0.
func (RangePartitioner) Plan(keys []int64, n int) (Assignment, error) {
	if n < 1 {
		return Assignment{}, fmt.Errorf("shard: range partitioner: shard count %d < 1", n)
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	bounds := make([]int64, n-1)
	for i := 0; i < n-1 && len(sorted) > 0; i++ {
		bounds[i] = sorted[max(0, (i+1)*len(sorted)/n-1)]
	}
	return Assignment{bounds: bounds}, nil
}

// Assignment is a frozen mapping from element keys to shards: shard 0 owns
// keys ≤ bounds[0], shard i keys in (bounds[i-1], bounds[i]], and shard n-1
// keys > bounds[n-2]. It is produced once at partitioning time by Plan, used
// by Split to cut the dataset and by Route to find a query's owning shard,
// and persisted in the file's layout field (Encode/DecodeAssignment) so a
// restarted process routes exactly as the one that preprocessed.
type Assignment struct{ bounds []int64 }

// Shards reports the shard count n.
func (a Assignment) Shards() int { return len(a.bounds) + 1 }

// Shard maps a key to its owning shard in [0, n).
func (a Assignment) Shard(key int64) int {
	s, _ := slices.BinarySearch(a.bounds, key)
	return s
}

// Encode renders the assignment for the layout field; DecodeAssignment
// reverses it.
func (a Assignment) Encode() []byte {
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
		return Assignment{}, fmt.Errorf("shard: empty assignment encoding")
	}
	if b[0] != rangeAssignmentTag {
		return Assignment{}, fmt.Errorf("shard: unknown assignment tag %q", b[0])
	}
	off := 1
	cnt, k := binary.Uvarint(b[off:])
	if k <= 0 {
		return Assignment{}, fmt.Errorf("shard: corrupt range assignment header")
	}
	off += k
	// Each bound takes at least one byte; reject hostile counts before
	// allocating.
	if cnt > uint64(len(b)-off) {
		return Assignment{}, fmt.Errorf("shard: range assignment claims %d bounds in %d bytes", cnt, len(b)-off)
	}
	bounds := make([]int64, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		v, k := binary.Varint(b[off:])
		if k <= 0 {
			return Assignment{}, fmt.Errorf("shard: corrupt range assignment bound %d", i)
		}
		off += k
		bounds = append(bounds, v)
	}
	if off != len(b) {
		return Assignment{}, fmt.Errorf("shard: %d trailing assignment bytes", len(b)-off)
	}
	if !slices.IsSorted(bounds) {
		return Assignment{}, fmt.Errorf("shard: range assignment bounds out of order")
	}
	return Assignment{bounds: bounds}, nil
}

// PartitionerByName resolves a partitioner name as the HTTP API's
// ?partitioner= gives it: "range", or empty for the same.
func PartitionerByName(name string) (RangePartitioner, error) {
	if name != "" && name != "range" {
		return RangePartitioner{}, fmt.Errorf("shard: unknown partitioner %q (have range)", name)
	}
	return RangePartitioner{}, nil
}
