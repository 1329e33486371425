package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"pitract/internal/schemes"
	"pitract/internal/store"
	"pitract/internal/store/faultfs"
)

// keyFixture is TestShardGenerationBytesUnchanged's key dataset — 64 keys in
// three hash shards — as built, in memory.
func keyFixture(tb testing.TB) *ShardedStore {
	tb.Helper()
	keys := make([]int64, 64)
	for i := range keys {
		keys[i] = int64(7*i - 100)
	}
	scheme := schemes.ListMembershipScheme()
	ss, err := Build("d", scheme, ForScheme(scheme.Name()), HashPartitioner{}, 3, schemes.EncodeList(keys))
	if err != nil {
		tb.Fatal(err)
	}
	return ss
}

// framed puts payload behind the manifest's magic and a CRC that vouches for
// it, so the field parser is reached.
func framed(payload []byte) []byte {
	out := append([]byte(nil), manifestMagic...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// FuzzDecodeManifest feeds the manifest decoder — on a sharded restart the
// only decoder of outside bytes, and its fields carry all of Π — arbitrary
// bytes, as a file and as a payload under a valid CRC. It must never panic; a
// manifest it accepts must re-encode to one that decodes to the same fields;
// and it must allocate by the bytes it was given, never by a count they claim:
// a member costs the file at least its length byte and the decoder a 24-byte
// slice header that append regrows, which is where the multiple comes from.
func FuzzDecodeManifest(f *testing.F) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: nobody else allocates
	keys := keyFixture(f)
	valid := keys.checkpointBytes(keys.state.Load())
	cs := shardCrashSchemes()[3] // reachability: a manifest with a summary
	reach, err := Build("d", cs.inc.Scheme, ForScheme(cs.name), RangePartitioner{}, 2, cs.data)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(reach.checkpointBytes(reach.state.Load()))
	f.Add(EncodeManifest(&Manifest{}))
	f.Add(append([]byte("PITRACTM\x02"), valid[len(manifestMagic):]...))
	f.Add(append([]byte("PITRACTM\x03"), valid[len(manifestMagic):]...))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(manifestMagic)+3])
	f.Add(append(append([]byte(nil), valid...), 0xff))
	f.Add([]byte{})
	// Payloads (the fuzz body frames them): a count of 2⁴⁰ members with none
	// behind it, and a thousand empty members.
	empty := EncodeManifest(&Manifest{})[len(manifestMagic)+4:]
	f.Add(binary.AppendUvarint(empty[:len(empty)-1:len(empty)-1], 1<<40))
	f.Add(EncodeManifest(&Manifest{Shards: make([][]byte, 1000)})[len(manifestMagic)+4:])

	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, framed(b)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := DecodeManifest(in)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(160*len(in)+4096); got > limit {
				t.Fatalf("decoding %d bytes allocated %d, want ≤ %d", len(in), got, limit)
			}
			if err != nil {
				if m != nil {
					t.Fatal("error with a non-nil manifest")
				}
				continue
			}
			re, err := DecodeManifest(EncodeManifest(m))
			if err != nil {
				t.Fatalf("re-encoding a decoded manifest failed to decode: %v", err)
			}
			if re.SchemeName != m.SchemeName || re.DataSum != m.DataSum || re.Partitioner != m.Partitioner ||
				!bytes.Equal(re.Assignment, m.Assignment) || !bytes.Equal(re.Summary, m.Summary) ||
				re.Version != m.Version || len(re.Shards) != len(m.Shards) {
				t.Fatalf("round trip changed fields: %+v vs %+v", re, m)
			}
			for i := range m.Shards {
				if !bytes.Equal(re.Shards[i], m.Shards[i]) {
					t.Fatalf("round trip changed member %d", i)
				}
			}
		}
	})
}

// TestEverySingleBitFlipIsDetected: one file means one artifact whose every
// bit is vouched for — the magic by comparison, the CRC field and the payload
// (members and their own CRCs included) by the CRC. Each single-bit flip of
// the key fixture's file must fail the load as corruption at the manifest's
// path, so the registry quarantines it; none may load, and none may read as an
// I/O error or a stale artifact.
func TestEverySingleBitFlipIsDetected(t *testing.T) {
	const dir = "/data"
	ss := keyFixture(t)
	file := ss.checkpointBytes(ss.state.Load())
	path := ManifestPath(dir, ss.ID)
	f := faultfs.New()
	write := func(b []byte) {
		t.Helper()
		if err := store.WriteFileAtomicFS(f, path, b); err != nil {
			t.Fatal(err)
		}
	}
	write(file)
	if _, err := LoadShardedFS(f, dir, ss.ID, ss.Scheme); err != nil {
		t.Fatalf("the undamaged file does not load: %v", err)
	}
	for bit := 0; bit < 8*len(file); bit++ {
		damaged := append([]byte(nil), file...)
		damaged[bit/8] ^= 1 << (bit % 8)
		write(damaged)
		_, err := LoadShardedFS(f, dir, ss.ID, ss.Scheme)
		var ce *store.CorruptArtifactError
		if !errors.As(err, &ce) || ce.Path != path {
			t.Fatalf("bit %d of byte %d flipped: load returned %v, want a CorruptArtifactError at %s", bit%8, bit/8, err, path)
		}
	}
}
