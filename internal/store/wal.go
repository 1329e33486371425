// The per-dataset write-ahead delta log. PR 4's PATCH path rewrote the
// whole snapshot before every in-memory commit, so a crash mid-PATCH could
// only fall back a full generation; the log closes that window. Every
// accepted delta batch is appended — CRC-framed and fsynced — *before* any
// in-memory or snapshot state changes, snapshot writes become checkpoints
// that truncate the log, and a registry open replays ⟨snapshot, log tail⟩
// so a restart resumes at the exact applied version. The log is also the
// ROADMAP's named prerequisite for multi-node replication: ship the log,
// not the snapshot.
//
// File layout:
//
//	logMagic ("PITRACTL\x02") ‖ record*
//	record   = crc32(body) (4 bytes BE) ‖ uvarint(len(body)) ‖ body
//	body     = uvarint(fromVersion) ‖ uvarint(k) ‖ k × (uvarint(len) ‖ delta)
//
// fromVersion is the dataset's maintenance version when the batch was
// accepted, which makes replay idempotent and self-aligning: records below
// the loaded snapshot's version are skipped (the checkpoint already holds
// them), the record at exactly the loaded version applies, and a gap above
// it means an acknowledged batch was lost (a lying fsync or foreign
// truncation) — an error, never a silent resume.
//
// A torn tail — short header, short body, or checksum mismatch on the last
// record — is the normal signature of a crash mid-append and marks a clean
// end of log. Corruption *behind* a valid frame (a CRC-valid record whose
// body does not parse) is hostile, not torn, and errors.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"net/url"
	"path/filepath"
)

// logMagic opens every delta-log file; the trailing byte is the format
// version. \x02 (PR 25): every recorded delta carries its kind header, so a
// \x01 log, whose inserts are untagged, fails this check and is quarantined.
var logMagic = []byte("PITRACTL\x02")

// LogPath is the canonical delta-log path for a dataset ID, next to its
// file (DatasetPath) with the ".pitract-log" suffix.
func LogPath(dir, id string) string {
	return filepath.Join(dir, url.PathEscape(id)+".pitract-log")
}

// LogRecord is one replayable delta batch.
type LogRecord struct {
	// FromVersion is the maintenance version the batch applies on top of.
	FromVersion uint64
	// Deltas are the batch's delta encodings, in application order.
	Deltas [][]byte
}

// encodeLogRecord frames one record (without the file magic).
func encodeLogRecord(fromVersion uint64, deltas [][]byte) []byte {
	body := binary.AppendUvarint(nil, fromVersion)
	body = binary.AppendUvarint(body, uint64(len(deltas)))
	for _, d := range deltas {
		body = binary.AppendUvarint(body, uint64(len(d)))
		body = append(body, d...)
	}
	rec := binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(body))
	rec = binary.AppendUvarint(rec, uint64(len(body)))
	return append(rec, body...)
}

// AppendLogRecord appends one batch record to the dataset's log and fsyncs
// it — the durability point of a PATCH. Creating the log also fsyncs the
// parent directory so the new file's entry survives a crash.
func AppendLogRecord(fsys FS, path string, fromVersion uint64, deltas [][]byte) error {
	size, err := fsys.Size(path)
	isNew := err != nil || size == 0
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("store: append log %s: %w", path, err)
	}
	buf := encodeLogRecord(fromVersion, deltas)
	if isNew {
		buf = append(append([]byte(nil), logMagic...), buf...)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("store: append log %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: append log %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: append log %s: %w", path, err)
	}
	if isNew {
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			return fmt.Errorf("store: append log %s: sync dir: %w", path, err)
		}
	}
	return nil
}

// ReadLog parses a delta log, returning every complete record up to the
// first torn one (which ends the log cleanly — the crash signature). A
// missing file is an empty log. CRC-valid records that fail to parse, or a
// full-length file with a foreign magic, are errors: that is corruption or
// hostility, not a crash.
func ReadLog(fsys FS, path string) ([]LogRecord, error) {
	b, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read log %s: %w", path, err)
	}
	if len(b) < len(logMagic) {
		// A crash during creation can leave a partial magic; clean empty.
		return nil, nil
	}
	if string(b[:len(logMagic)]) != string(logMagic) {
		return nil, &CorruptArtifactError{Path: path, Err: fmt.Errorf("store: %s is not a pitract delta log", path)}
	}
	var records []LogRecord
	off := len(logMagic)
	for off < len(b) {
		if len(b)-off < 5 {
			break // torn header: clean end
		}
		wantCRC := binary.BigEndian.Uint32(b[off:])
		bodyLen, m := binary.Uvarint(b[off+4:])
		if m <= 0 {
			break // torn length: clean end
		}
		bodyOff := off + 4 + m
		if bodyLen > uint64(len(b)-bodyOff) {
			break // torn body: clean end
		}
		body := b[bodyOff : bodyOff+int(bodyLen)]
		if crc32.ChecksumIEEE(body) != wantCRC {
			break // torn write caught by checksum: clean end
		}
		rec, err := decodeLogBody(body)
		if err != nil {
			return nil, &CorruptArtifactError{Path: path,
				Err: fmt.Errorf("store: read log %s: record %d: %w", path, len(records), err)}
		}
		records = append(records, rec)
		off = bodyOff + int(bodyLen)
	}
	return records, nil
}

// decodeLogBody parses one CRC-validated record body. Failures here are
// hostile input, not torn writes — the checksum already matched.
func decodeLogBody(body []byte) (LogRecord, error) {
	var rec LogRecord
	off := 0
	next := func() (uint64, error) {
		v, m := binary.Uvarint(body[off:])
		if m <= 0 {
			return 0, fmt.Errorf("corrupt varint at offset %d", off)
		}
		off += m
		return v, nil
	}
	from, err := next()
	if err != nil {
		return rec, err
	}
	k, err := next()
	if err != nil {
		return rec, err
	}
	// Each delta costs at least one length byte, so a count beyond the
	// remaining bytes is corrupt — reject before allocating.
	if k > uint64(len(body)-off) {
		return rec, fmt.Errorf("delta count %d exceeds remaining %d bytes", k, len(body)-off)
	}
	rec.FromVersion = from
	rec.Deltas = make([][]byte, 0, int(k))
	for i := uint64(0); i < k; i++ {
		dlen, err := next()
		if err != nil {
			return rec, err
		}
		if dlen > uint64(len(body)-off) {
			return rec, fmt.Errorf("delta %d claims %d bytes, %d remain", i, dlen, len(body)-off)
		}
		rec.Deltas = append(rec.Deltas, append([]byte(nil), body[off:off+int(dlen)]...))
		off += int(dlen)
	}
	if off != len(body) {
		return rec, fmt.Errorf("%d trailing record bytes", len(body)-off)
	}
	return rec, nil
}

// RemoveLog truncates (deletes) a dataset's delta log and makes the
// removal durable — the checkpoint's final step. Removing a log that does
// not exist is a no-op.
func RemoveLog(fsys FS, path string) error {
	if err := fsys.Remove(path); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("store: remove log %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("store: remove log %s: sync dir: %w", path, err)
	}
	return nil
}
