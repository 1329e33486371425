package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pitract/internal/graph"
	"pitract/internal/schemes"
	"pitract/internal/store"
	"pitract/internal/store/faultfs"
)

// checkpointBytes is the file a checkpoint of ss's committed value writes.
func checkpointBytes(ss *ShardedStore) []byte {
	f := faultfs.New()
	if err := ss.Checkpoint(f, "/c"); err != nil {
		panic(err)
	}
	b, err := f.ReadFile(store.DatasetPath("/c", ss.ID))
	if err != nil {
		panic(err)
	}
	return b
}

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

// hostileSummaries returns a sharded reachability fixture — the chain
// 0→1→…→7 in two range shards, 0–3 and 4–7 — and, keyed by what each breaks,
// summaries whose framing holds around a cross-edge arc file whose own header
// holds too: only the decoder's reading of the arcs can refuse them. The
// valid entry is the fixture's own arcs in the same framing.
func hostileSummaries(tb testing.TB) (*ShardedStore, map[string][]byte) {
	tb.Helper()
	scheme := schemes.ReachabilityScheme()
	ss, err := Build("g", scheme, ForScheme(scheme.Name()), RangePartitioner{}, 2, graph.Path(8, true).Encode())
	if err != nil {
		tb.Fatal(err)
	}
	if ss.Asn.Shard(0) != ss.Asn.Shard(3) || ss.Asn.Shard(3) == ss.Asn.Shard(4) || ss.Asn.Shard(4) != ss.Asn.Shard(7) {
		tb.Fatal("fixture: the range shards are not 0–3 and 4–7")
	}
	overlay := ss.Committed().View().(*reachSummary).overlay.AppendWire(nil)
	with := func(directed bool, file []byte) []byte {
		b := binary.AppendUvarint(nil, 8)
		if directed {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		return append(append(binary.AppendUvarint(b, uint64(len(file))), file...), overlay...)
	}
	arcs := func(n int, es ...[2]int) []byte {
		file, err := schemes.EncodeArcs(n, true, es)
		if err != nil {
			tb.Fatal(err)
		}
		return file
	}
	// Ids 4, 5, 6 (0→4, 0→5, 0→6) leave no low bits, so the high bits — the
	// 8-byte word after the 32-byte header and one 4-byte sample — set bit
	// id + i for key i: 4, 6 and 8. Moving the middle one to bit 5 reads key
	// 1 as 4 again: an id that does not rise.
	unordered := arcs(8, [2]int{0, 4}, [2]int{0, 5}, [2]int{0, 6})
	if len(unordered) != 44 || unordered[36] != 0x50 || unordered[37] != 0x01 {
		tb.Fatalf("fixture: the arc file of ids 4, 5, 6 is laid out as % x", unordered)
	}
	unordered[36] = 0x30
	return ss, map[string][]byte{
		"valid":                with(true, arcs(8, [2]int{3, 4})),
		"arc-id-past-n²":       with(true, arcs(9, [2]int{8, 0})), // id 72 ≥ 8²
		"out-of-order":         with(true, unordered),
		"self-loop":            with(true, arcs(8, [2]int{3, 4}, [2]int{4, 4})),
		"undirected-u-gt-v":    with(false, arcs(8, [2]int{4, 3})),
		"cross-inside-a-shard": with(true, arcs(8, [2]int{1, 2}, [2]int{3, 4})),
	}
}

// withSummary returns ss's checkpoint with its summary replaced, under a
// CRC that vouches for it.
func withSummary(ss *ShardedStore, summary []byte) []byte {
	m, err := store.DecodeManifest(checkpointBytes(ss))
	if err != nil {
		panic(err)
	}
	m.Summary = summary
	return store.EncodeManifest(m)
}

// TestReachSummaryRefusesHostileCrossEdges: each hostile summary is refused
// by the decoder — by the check named for it, never a panic — and a manifest
// carrying one under a valid CRC fails the load as corruption at the
// manifest's path, so the registry quarantines it and rebuilds.
func TestReachSummaryRefusesHostileCrossEdges(t *testing.T) {
	ss, cases := hostileSummaries(t)
	want := map[string]string{
		"arc-id-past-n²":       "spans arc ids [72, 72], over 8 vertices",
		"out-of-order":         "high bits disagree with its header",
		"self-loop":            "self-loop at 4",
		"undirected-u-gt-v":    "undirected arc (4,3) is not stored as (3,4)",
		"cross-inside-a-shard": "cross edge (1,2) lies inside shard 0",
	}
	const dir = "/data"
	f := faultfs.New()
	path := store.DatasetPath(dir, ss.ID)
	for name, summary := range cases {
		_, err := decodeReachSummary(summary, ss.Asn)
		if name == "valid" {
			if err != nil {
				t.Fatalf("the fixture's own framing does not decode: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), want[name]) {
			t.Errorf("%s: decode returned %v, want %q", name, err, want[name])
		}
		if err := store.WriteFileAtomicFS(f, path, withSummary(ss, summary)); err != nil {
			t.Fatal(err)
		}
		_, err = load(f, dir, ss.ID, ss.Scheme)
		var ce *store.CorruptArtifactError
		if !errors.As(err, &ce) || ce.Path != path {
			t.Errorf("%s: load returned %v, want a CorruptArtifactError at %s", name, err, path)
		}
	}
}

// framed puts payload behind the manifest's magic and a CRC that vouches for
// it, so the field parser is reached.
func framed(payload []byte) []byte {
	out := append([]byte(nil), manifestMagic...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// FuzzDecodeManifest feeds the manifest decoder — on a restart the only
// decoder of outside bytes, and its fields carry all of Π — arbitrary bytes,
// as a file and as a payload under a valid CRC, and this package's layout
// decoder and the reachability summary decoder whatever layout field and
// summary a manifest it accepts carries (the seeds hold each cross-edge arc
// file the summary decoder refuses). It must never panic; a
// manifest it accepts must re-encode to one that decodes to the same fields;
// and it must allocate by the bytes it was given, never by a count they claim:
// a member costs the file at least its length byte and the decoder a 24-byte
// slice header that append regrows, which is where the multiple comes from.
func FuzzDecodeManifest(f *testing.F) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: nobody else allocates
	keys := keyFixture(f)
	valid := checkpointBytes(keys)
	cs := shardCrashSchemes()[3] // reachability: a manifest with a summary
	reach, err := Build("d", cs.inc, ForScheme(cs.name), RangePartitioner{}, 2, cs.data)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(checkpointBytes(reach))
	f.Add(store.EncodeManifest(&store.Manifest{}))
	f.Add(append([]byte("PITRACTM\x02"), valid[len(manifestMagic):]...))
	f.Add(append([]byte("PITRACTM\x03"), valid[len(manifestMagic):]...))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(manifestMagic)+3])
	f.Add(append(append([]byte(nil), valid...), 0xff))
	f.Add([]byte{})
	// Payloads (the fuzz body frames them): a count of 2⁴⁰ members with none
	// behind it, and a thousand empty members.
	empty := store.EncodeManifest(&store.Manifest{})[len(manifestMagic)+4:]
	f.Add(binary.AppendUvarint(empty[:len(empty)-1:len(empty)-1], 1<<40))
	f.Add(store.EncodeManifest(&store.Manifest{Members: make([][]byte, 1000)})[len(manifestMagic)+4:])
	// A version 4 reachability manifest, and manifests whose summary's arc
	// file only the summary decoder can refuse.
	f.Add(append([]byte("PITRACTM\x04"), checkpointBytes(reach)[len(manifestMagic):]...))
	hostile, summaries := hostileSummaries(f)
	for _, name := range slices.Sorted(maps.Keys(summaries)) {
		f.Add(withSummary(hostile, summaries[name]))
	}
	// The last sharded-only version, and a plain dataset's file.
	f.Add(append([]byte("PITRACTM\x05"), valid[len(manifestMagic):]...))
	plain, err := store.NewRegistry("").Register("p", cs.inc, cs.data)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(store.EncodeManifest(&store.Manifest{SchemeName: cs.name, DataSum: plain.DataSum, Members: [][]byte{store.EncodeSnapshot(plain.Snapshot())}}))
	scheme := schemes.ReachabilityScheme()

	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, framed(b)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := store.DecodeManifest(in)
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
			re, err := store.DecodeManifest(store.EncodeManifest(m))
			if err != nil {
				t.Fatalf("re-encoding a decoded manifest failed to decode: %v", err)
			}
			if re.SchemeName != m.SchemeName || re.DataSum != m.DataSum || !bytes.Equal(re.Layout, m.Layout) ||
				!bytes.Equal(re.Summary, m.Summary) || re.Version != m.Version || len(re.Members) != len(m.Members) {
				t.Fatalf("round trip changed fields: %+v vs %+v", re, m)
			}
			for i := range m.Members {
				if !bytes.Equal(re.Members[i], m.Members[i]) {
					t.Fatalf("round trip changed member %d", i)
				}
			}
			// The layout decoder, and the summary decoder as a load reaches it:
			// behind an assignment that matches the member count. Each must
			// refuse or accept, never panic. A summary's vertex count costs it
			// no bytes and the view 16 B a vertex, so only small graphs are
			// decoded: each exec stays small.
			var asn Assignment
			_, _ = LayoutDecoder(scheme)(m.Layout, func(l store.Layout) (*store.Store, error) {
				if ss, ok := l.(*ShardedStore); ok {
					asn = ss.Asn
				}
				return nil, errors.New("decoded")
			})
			if n, k := binary.Uvarint(m.Summary); asn != nil && asn.Shards() == len(m.Members) && k > 0 && n <= 1<<16 {
				_, _ = decodeReachSummary(m.Summary, asn)
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
	file := checkpointBytes(ss)
	path := store.DatasetPath(dir, ss.ID)
	f := faultfs.New()
	write := func(b []byte) {
		t.Helper()
		if err := store.WriteFileAtomicFS(f, path, b); err != nil {
			t.Fatal(err)
		}
	}
	write(file)
	if _, err := load(f, dir, ss.ID, ss.Scheme); err != nil {
		t.Fatalf("the undamaged file does not load: %v", err)
	}
	for bit := 0; bit < 8*len(file); bit++ {
		damaged := append([]byte(nil), file...)
		damaged[bit/8] ^= 1 << (bit % 8)
		write(damaged)
		_, err := load(f, dir, ss.ID, ss.Scheme)
		var ce *store.CorruptArtifactError
		if !errors.As(err, &ce) || ce.Path != path {
			t.Fatalf("bit %d of byte %d flipped: load returned %v, want a CorruptArtifactError at %s", bit%8, bit/8, err, path)
		}
	}
}
