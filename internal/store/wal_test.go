package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"pitract/internal/schemes"
)

// walRecords is the shared fixture: three batches with awkward payloads —
// empty batch, empty delta, binary junk that looks like framing.
func walRecords() []LogRecord {
	return []LogRecord{
		{FromVersion: 0, Deltas: [][]byte{[]byte("first"), {}}},
		{FromVersion: 2, Deltas: nil},
		{FromVersion: 2, Deltas: [][]byte{{0xFF, 0xFF, 0xFF, 0x00, 0x01, 0x80}, []byte("PITRACTL\x02")}},
	}
}

func writeWAL(t *testing.T, recs []LogRecord) string {
	t.Helper()
	path := LogPath(t.TempDir(), "d")
	for _, r := range recs {
		if err := AppendLogRecord(OSFS, path, r.FromVersion, r.Deltas); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func assertRecords(t *testing.T, got, want []LogRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].FromVersion != want[i].FromVersion {
			t.Fatalf("record %d: FromVersion %d, want %d", i, got[i].FromVersion, want[i].FromVersion)
		}
		if len(got[i].Deltas) != len(want[i].Deltas) {
			t.Fatalf("record %d: %d deltas, want %d", i, len(got[i].Deltas), len(want[i].Deltas))
		}
		for j := range want[i].Deltas {
			if !bytes.Equal(got[i].Deltas[j], want[i].Deltas[j]) {
				t.Fatalf("record %d delta %d: %x != %x", i, j, got[i].Deltas[j], want[i].Deltas[j])
			}
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	want := walRecords()
	path := writeWAL(t, want)
	got, err := ReadLog(OSFS, path)
	if err != nil {
		t.Fatal(err)
	}
	assertRecords(t, got, want)
}

func TestWALMissingAndEmpty(t *testing.T) {
	recs, err := ReadLog(OSFS, LogPath(t.TempDir(), "absent"))
	if err != nil || recs != nil {
		t.Fatalf("missing log: %v %v", recs, err)
	}
	// A crash during creation can leave fewer bytes than the magic: clean
	// empty, not an error.
	for _, partial := range [][]byte{{}, []byte("PITR"), []byte("PITRACTL")} {
		path := filepath.Join(t.TempDir(), "partial.pitract-log")
		if err := os.WriteFile(path, partial, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadLog(OSFS, path)
		if err != nil || recs != nil {
			t.Fatalf("%d-byte partial magic: %v %v", len(partial), recs, err)
		}
	}
}

func TestWALForeignMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign.pitract-log")
	if err := os.WriteFile(path, []byte("SQLITE f3\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(OSFS, path); err == nil {
		t.Fatal("foreign magic accepted")
	}
}

// TestPreTagLogIsQuarantined: a PITRACTL\x01 log — written before every
// delta carried its kind, so its inserts are untagged bytes this version
// refuses — fails the magic check beside a checkpoint. It is quarantined
// verbatim and never replayed, the dataset is served at the checkpoint's
// version, and the registration succeeds (without the magic bump its first
// record would be refused and fail every restart).
func TestPreTagLogIsQuarantined(t *testing.T) {
	scheme := schemes.PointSelectionScheme()
	data := schemes.RelationFromKeys([]int64{2, 4, 6})
	dir := t.TempDir()
	reg := NewRegistry(dir)
	reg.SetCheckpointEvery(1)
	if _, err := reg.Register("d", scheme, data); err != nil {
		t.Fatal(err)
	}
	if v, err := reg.ApplyDelta("d", [][]byte{schemes.KeysDelta([]int64{8})}); err != nil || v != 1 {
		t.Fatalf("PATCH: version %d, %v", v, err)
	}
	// The old log's one record: an untagged insert of key 9 at version 1.
	old := append([]byte("PITRACTL\x01"), encodeLogRecord(1, [][]byte{schemes.EncodeList([]int64{9})})...)
	logPath := LogPath(dir, "d")
	if err := os.WriteFile(logPath, old, 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistry(dir)
	st, err := reg2.Register("d", scheme, data)
	if err != nil {
		t.Fatalf("register beside a \\x01 log: %v", err)
	}
	if !st.WasLoaded() || st.Version() != 1 || reg2.QuarantineCount() != 1 || reg2.ReplayCount() != 0 {
		t.Fatalf("loaded=%v version=%d quarantines=%d replays=%d, want the checkpoint at 1, one quarantine, no replay",
			st.WasLoaded(), st.Version(), reg2.QuarantineCount(), reg2.ReplayCount())
	}
	for key, want := range map[int64]bool{8: true, 9: false} {
		if got, err := st.Answer(schemes.PointQuery(key)); err != nil || got != want {
			t.Fatalf("key %d = (%v, %v), want %v", key, got, err, want)
		}
	}
	if kept, err := os.ReadFile(QuarantinePath(logPath)); err != nil || !bytes.Equal(kept, old) {
		t.Fatalf("quarantined log = (%d bytes, %v), want the \\x01 bytes verbatim", len(kept), err)
	}
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Fatalf("the \\x01 log is still in place: %v", err)
	}
}

// TestWALTornTail truncates the log at every byte boundary: the records
// whose frames survive intact must parse, the torn tail must end the log
// cleanly, and no truncation may error — a torn write is a crash
// signature, not corruption.
func TestWALTornTail(t *testing.T) {
	want := walRecords()
	path := writeWAL(t, want)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Record frame boundaries so we know how many records each prefix holds.
	bounds := []int{len(logMagic)}
	for _, r := range want {
		bounds = append(bounds, bounds[len(bounds)-1]+len(encodeLogRecord(r.FromVersion, r.Deltas)))
	}
	if bounds[len(bounds)-1] != len(full) {
		t.Fatalf("frame arithmetic off: %v vs %d bytes", bounds, len(full))
	}
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadLog(OSFS, path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantN := 0
		for i := 1; i < len(bounds); i++ {
			if cut >= bounds[i] {
				wantN = i
			}
		}
		if len(got) != wantN {
			t.Fatalf("cut %d: %d records survive, want %d", cut, len(got), wantN)
		}
		assertRecords(t, got, want[:wantN])
	}
}

// TestWALFlippedBit: a checksum mismatch on the last record is torn (clean
// end), and records behind it still parse.
func TestWALFlippedBit(t *testing.T) {
	want := walRecords()
	path := writeWAL(t, want)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full[len(full)-1] ^= 0x40
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(OSFS, path)
	if err != nil {
		t.Fatal(err)
	}
	assertRecords(t, got, want[:len(want)-1])
}

// TestWALHostileBody: a record whose CRC matches but whose body does not
// parse is corruption, not a crash — ReadLog must error, never guess.
func TestWALHostileBody(t *testing.T) {
	hostileBodies := [][]byte{
		{0x80},                   // truncated fromVersion varint
		{0x01},                   // missing count
		{0x00, 0x05},             // count 5, zero bytes remain
		{0x00, 0x01, 0x06, 0xAA}, // delta claims 6 bytes, 1 remains
		{0x00, 0x00, 0xEE},       // trailing bytes after a valid record
	}
	for i, body := range hostileBodies {
		frame := binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(body))
		frame = binary.AppendUvarint(frame, uint64(len(body)))
		frame = append(frame, body...)
		path := filepath.Join(t.TempDir(), "hostile.pitract-log")
		if err := os.WriteFile(path, append(append([]byte(nil), logMagic...), frame...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadLog(OSFS, path); err == nil {
			t.Fatalf("hostile body %d accepted", i)
		}
	}
}

// FuzzLogReplay feeds arbitrary bytes to the log parser. Properties: no
// panic; and whatever records come back must re-encode into a log that
// parses to the identical records (the parser and encoder agree).
func FuzzLogReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(logMagic))
	f.Add([]byte("SQLITE f3\x00\x00\x00"))
	valid := append([]byte(nil), logMagic...)
	for _, r := range walRecords() {
		valid = append(valid, encodeLogRecord(r.FromVersion, r.Deltas)...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[15] ^= 0x01
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.pitract-log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		recs, err := ReadLog(OSFS, path)
		if err != nil {
			return // rejected cleanly
		}
		// Round-trip: re-encoding the accepted records must reproduce them.
		re := append([]byte(nil), logMagic...)
		for _, r := range recs {
			re = append(re, encodeLogRecord(r.FromVersion, r.Deltas)...)
		}
		path2 := filepath.Join(dir, "re.pitract-log")
		if err := os.WriteFile(path2, re, 0o644); err != nil {
			t.Fatal(err)
		}
		recs2, err := ReadLog(OSFS, path2)
		if err != nil {
			t.Fatalf("re-encoded log rejected: %v", err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("round trip lost records: %d != %d", len(recs2), len(recs))
		}
		for i := range recs {
			if recs2[i].FromVersion != recs[i].FromVersion || len(recs2[i].Deltas) != len(recs[i].Deltas) {
				t.Fatalf("record %d mutated in round trip", i)
			}
			for j := range recs[i].Deltas {
				if !bytes.Equal(recs2[i].Deltas[j], recs[i].Deltas[j]) {
					t.Fatalf("record %d delta %d mutated in round trip", i, j)
				}
			}
		}
	})
}
