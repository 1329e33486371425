package shard

import (
	"math/rand"
	"slices"
	"testing"

	"pitract/internal/schemes"
)

func TestRangeAssignmentContiguousAndBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	keys := make([]int64, 1000)
	for i := range keys {
		keys[i] = int64(rng.Intn(100000) - 50000)
	}
	asn, err := RangePartitioner{}.Plan(keys, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Contiguity: shard ids are non-decreasing in key order.
	prev := 0
	for k := int64(-60000); k <= 60000; k += 7 {
		s := asn.Shard(k)
		if s < prev {
			t.Fatalf("shard id decreased from %d to %d at key %d — ranges not contiguous", prev, s, k)
		}
		prev = s
	}
	// Balance: the dataset's own keys spread roughly evenly.
	counts := make([]int, asn.Shards())
	for _, k := range keys {
		counts[asn.Shard(k)]++
	}
	for s, c := range counts {
		if c < 100 || c > 500 {
			t.Fatalf("range shard %d holds %d of 1000 keys: %v", s, c, counts)
		}
	}
	// routeKeys: single-bucket ranges route, spanning ranges fan out.
	if got, err := routeKeys(schemes.RangeQuery(-60000, 60000), asn); err != nil || got != -1 {
		t.Fatalf("full-span range routed to shard %d (%v), want -1", got, err)
	}
	for _, k := range keys[:50] {
		if got, err := routeKeys(schemes.RangeQuery(k, k), asn); err != nil || got != asn.Shard(k) {
			t.Fatalf("point range [%d,%d] routed to %d (%v), want %d", k, k, got, err, asn.Shard(k))
		}
	}
}

// TestRangePlanBounds pins Plan's bounds — the n-1 equidistant order
// statistics of the keys, 0 for an empty key set — which the layout field
// persists, so a change here would move every range-partitioned file.
func TestRangePlanBounds(t *testing.T) {
	for _, c := range []struct {
		keys []int64
		n    int
		want []int64
	}{
		{nil, 1, []int64{}},
		{nil, 3, []int64{0, 0}},
		{[]int64{5}, 3, []int64{5, 5}},
		{[]int64{9, -2, 3, 3, 200, 14, 0}, 3, []int64{0, 3}},
		{[]int64{4, 3, 2, 1}, 4, []int64{1, 2, 3}},
		{[]int64{7, 7, 7, 7, 7, 7}, 2, []int64{7}},
	} {
		asn, err := RangePartitioner{}.Plan(c.keys, c.n)
		if err != nil || !slices.Equal(asn.bounds, c.want) {
			t.Errorf("Plan(%v, %d) bounds %v (%v), want %v", c.keys, c.n, asn.bounds, err, c.want)
		}
	}
	if _, err := (RangePartitioner{}).Plan(nil, 0); err == nil {
		t.Error("Plan with 0 shards succeeded")
	}
}

func TestAssignmentEncodeDecodeRoundTrip(t *testing.T) {
	asn, _ := RangePartitioner{}.Plan([]int64{-9, -2, 0, 3, 3, 14, 200}, 3)
	got, err := DecodeAssignment(asn.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards() != asn.Shards() {
		t.Fatalf("decoded %d shards, want %d", got.Shards(), asn.Shards())
	}
	for k := int64(-300); k < 300; k++ {
		if got.Shard(k) != asn.Shard(k) {
			t.Fatalf("decoded assignment diverges at key %d", k)
		}
	}
}

func TestDecodeAssignmentRejectsHostileInput(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{'x'},
		{'h', 2},                        // the hash assignment an earlier version wrote
		{rangeAssignmentTag},            // no count
		{rangeAssignmentTag, 0xff},      // truncated varint count
		{rangeAssignmentTag, 200, 1, 2}, // count exceeds buffer
		{rangeAssignmentTag, 2, 4, 2},   // bounds out of order
		{rangeAssignmentTag, 1, 4, 9},   // trailing bytes
	}
	for i, b := range cases {
		if _, err := DecodeAssignment(b); err == nil {
			t.Errorf("case %d (%v): hostile assignment decoded without error", i, b)
		}
	}
}

func TestPartitionerByName(t *testing.T) {
	for _, name := range []string{"", "range"} {
		if p, err := PartitionerByName(name); err != nil || p.Name() != "range" {
			t.Fatalf("PartitionerByName(%q) = %v, %v", name, p, err)
		}
	}
	for _, name := range []string{"hash", "zodiac"} {
		if _, err := PartitionerByName(name); err == nil {
			t.Fatalf("partitioner %q accepted", name)
		}
	}
}
