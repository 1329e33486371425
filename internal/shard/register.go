package shard

// A sharded dataset is persisted in store's one file format (store.Load):
// this file adds only what a partition puts in the file's layout field — the
// partitioner's name and the frozen assignment — the decoder that reads it
// back, and the sharded registration.

import (
	"context"
	"encoding/binary"
	"fmt"

	"pitract/internal/core"
	"pitract/internal/store"
)

// Encode implements store.Layout: the file's layout field, the partitioner
// name uvarint-length-prefixed, then the frozen assignment
// (DecodeAssignment form).
func (ss *ShardedStore) Encode() []byte {
	b := binary.AppendUvarint(nil, uint64(len(ss.Partitioner)))
	return append(append(b, ss.Partitioner...), ss.Asn.Encode()...)
}

// LayoutDecoder is the store.LayoutDecoder of scheme's datasets, plain or
// partitioned: an empty layout field is store.Plain, and any other is the
// partitioner and assignment ShardedStore.Encode wrote, served as a
// ShardedStore over the scheme's sharded form. A partitioner other than
// range — the hash layout an earlier version wrote — is refused, so the
// file is quarantined and rebuilt like any layout this version does not
// read.
func LayoutDecoder(scheme *core.Scheme) store.LayoutDecoder {
	return func(layout []byte, open func(store.Layout) (*store.Store, error)) (store.DeltaDataset, error) {
		if len(layout) == 0 {
			return store.DecodePlain(layout, open)
		}
		sh := ForScheme(scheme.Name())
		if sh == nil {
			return nil, fmt.Errorf("shard: scheme %s has no sharded form", scheme.Name())
		}
		n, k := binary.Uvarint(layout)
		if k <= 0 || uint64(len(layout)-k) < n {
			return nil, fmt.Errorf("shard: corrupt partitioner name in the layout field")
		}
		if name := string(layout[k : k+int(n)]); name != (RangePartitioner{}).Name() {
			return nil, fmt.Errorf("shard: unknown partitioner %q in the layout field", name)
		}
		asn, err := DecodeAssignment(layout[k+int(n):])
		if err != nil {
			return nil, err
		}
		ss := &ShardedStore{Sharding: sh, Asn: asn, Partitioner: RangePartitioner{}.Name()}
		if ss.Store, err = open(ss); err != nil {
			return nil, err
		}
		return ss, nil
	}
}

// RegisterSharded registers data under id as n partitioned stores behind
// one registry catalog entry — the sharded sibling of Registry.Register,
// with the same exactly-once and persistence contract: concurrent
// registrations share one build, a persistent registry reloads the dataset's
// file when it matches (same scheme, same data digest, same shard count)
// instead of re-preprocessing, and re-registering with anything
// incompatible is an error rather than a silent swap. The split is by key
// range (RangePartitioner).
func RegisterSharded(r *store.Registry, id string, scheme *core.Scheme, n int, data []byte) (*ShardedStore, error) {
	return RegisterShardedContext(context.Background(), r, id, scheme, n, data)
}

// RegisterShardedContext is RegisterSharded under a request budget: when
// ctx expires before the per-shard preprocessing completes the call
// returns a *store.BudgetError and the build is abandoned (it finishes but
// is not memoized — no catalog entry remains), exactly the
// Registry.RegisterContext contract. The HTTP layer threads each sharded
// registration's deadline through here.
func RegisterShardedContext(ctx context.Context, r *store.Registry, id string, scheme *core.Scheme, n int, data []byte) (*ShardedStore, error) {
	if scheme == nil {
		return nil, fmt.Errorf("shard: register %q: nil scheme", id)
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: register %q: shard count %d < 1", id, n)
	}
	sh := ForScheme(scheme.Name())
	if sh == nil {
		return nil, fmt.Errorf("shard: register %q: scheme %s has no sharded form (shardable: %v)",
			id, scheme.Name(), ShardableSchemes())
	}
	sum := store.SumBeside(data)
	want := func() store.Key { return store.Key{Scheme: scheme.Name(), Sum: sum(), Layout: describe(n)} }
	ds, err := r.RegisterAs(ctx, id, scheme, want, LayoutDecoder(scheme),
		func() (store.DeltaDataset, error) {
			ss, err := build(id, scheme, sh, n, data, sum)
			if err != nil {
				return nil, err
			}
			return ss, nil
		})
	if err != nil {
		return nil, err
	}
	ss, ok := ds.(*ShardedStore)
	if !ok {
		return nil, fmt.Errorf("shard: dataset %q is not a sharded store", id)
	}
	return ss, nil
}
