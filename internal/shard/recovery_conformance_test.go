package shard

// One conformance table for recovery, over the write-side kinds
// (write_conformance_test.go): after any single corrupt artifact or delta
// log, a plain, a routed-sharded and a view-sharded dataset all restart at
// the version the surviving durable state determines — never silently
// behind an acknowledged PATCH — with the damaged bytes kept for forensics,
// the quarantine counted and reported as the dataset's health, and the next
// restart clean. A medium that cannot be *read* at restart is a different
// thing from an artifact that is not there: reads that come back within the
// retries load and replay as if nothing happened, reads that do not fail the
// registration and leave every durable byte where it was. Recovery is
// store.Registry.Recover for every kind, so the kinds cannot disagree on
// what corruption — or a flaky read — costs.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"pitract/internal/store"
	"pitract/internal/store/faultfs"
)

func TestCorruptionRecoveryConformance(t *testing.T) {
	path, logPath := store.DatasetPath(shardCrashDir, shardCrashID), store.LogPath(shardCrashDir, shardCrashID)
	// Two hostile logs a torn crash cannot produce: a foreign file under the
	// log's name, and a CRC-valid record whose body does not parse.
	hostileBody := []byte{0x00, 0x05} // count 5, zero bytes remain
	unparseable := append([]byte("PITRACTL\x02"), binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(hostileBody))...)
	unparseable = append(binary.AppendUvarint(unparseable, uint64(len(hostileBody))), hostileBody...)
	hostileLogs := []struct {
		name  string
		bytes []byte
	}{{"foreign-magic-log", []byte("SQLite format 3\x00 — not ours")}, {"unparseable-log-record", unparseable}}

	for _, k := range writeKinds() {
		t.Run(k.name, func(t *testing.T) {
			states := shardOracleStates(t, k.cs)
			acked := uint64(len(k.cs.batches[0]) + len(k.cs.batches[1]))

			// serve registers the dataset at the given cadence and applies
			// the scenario's first two batches, both acknowledged.
			serve := func(t *testing.T, cadence int) *faultfs.FS {
				t.Helper()
				f := faultfs.New()
				reg, _ := k.open(t, f, cadence)
				for _, b := range k.cs.batches[:2] {
					if _, err := reg.ApplyDelta(shardCrashID, b); err != nil {
						t.Fatal(err)
					}
				}
				return f
			}
			// heals restarts over the damaged medium and checks the recovered
			// dataset, the quarantine, and that a second restart is clean.
			heals := func(t *testing.T, f *faultfs.FS, quarantined string, want []byte, loaded bool, replays int64) {
				t.Helper()
				f.Restart()
				reg, ds := k.open(t, f, 100)
				if ds.Version() != acked || ds.WasLoaded() != loaded {
					t.Fatalf("restart: version %d loaded=%v, want %d loaded=%v", ds.Version(), ds.WasLoaded(), acked, loaded)
				}
				assertShardOracle(t, k.cs, ds, states[acked], "restart over the damage")
				if q, r := reg.QuarantineCount(), reg.ReplayCount(); q != 1 || r != replays {
					t.Fatalf("restart: %d quarantines, %d replays; want 1, %d", q, r, replays)
				}
				if st := reg.HealthStates()[shardCrashID]; st != store.HealthQuarantined {
					t.Fatalf("restart: health %v, want quarantined", st)
				}
				if got, ok := f.DurableBytes(store.QuarantinePath(quarantined)); !ok || string(got) != string(want) {
					t.Fatalf("%s does not hold the quarantined bytes verbatim (present=%v)", store.QuarantinePath(quarantined), ok)
				}
				f.Restart()
				reg2, ds2 := k.open(t, f, 100)
				if !ds2.WasLoaded() || ds2.Version() != acked || reg2.ReplayCount() != 0 || reg2.QuarantineCount() != 0 {
					t.Fatalf("second restart: loaded=%v version=%d replays=%d quarantines=%d; want true, %d, 0, 0",
						ds2.WasLoaded(), ds2.Version(), reg2.ReplayCount(), reg2.QuarantineCount(), acked)
				}
				assertShardOracle(t, k.cs, ds2, states[acked], "second restart")
			}

			// A damaged checkpoint under a log holding both acknowledged
			// batches: the artifact is set aside, Π rebuilt from source and
			// the surviving log replayed on top.
			for _, a := range fileArtifacts {
				t.Run("flipped-"+a.name, func(t *testing.T) {
					f := serve(t, 100)
					b, ok := f.DurableBytes(path)
					if !ok || !f.CorruptByte(path, a.offset(t, b)) {
						t.Fatalf("no durable %s to corrupt", path)
					}
					// The evidence kept is the damaged file itself.
					damaged, _ := f.DurableBytes(path)
					if bytes.Equal(damaged, b) {
						t.Fatalf("%s was not damaged", path)
					}
					heals(t, f, path, damaged, false, 2)
				})
			}
			// A CRC-valid checkpoint whose Π, one member, or the summary view
			// over the members this build will not prepare is corrupt all the
			// same: set aside verbatim, rebuilt, the surviving log replayed.
			for _, pf := range k.faults {
				t.Run("unpreparable-"+pf.name, func(t *testing.T) {
					f := serve(t, 100)
					intact, ok := f.DurableBytes(path)
					if !ok {
						t.Fatalf("no durable %s", path)
					}
					pf.arm()
					heals(t, f, path, intact, false, 2)
				})
			}
			// A hostile log beside a checkpoint holding both batches: the log
			// is set aside and the checkpoint served.
			for _, h := range hostileLogs {
				t.Run(h.name, func(t *testing.T) {
					f := serve(t, 1)
					if err := store.WriteFileAtomicFS(f, logPath, h.bytes); err != nil {
						t.Fatal(err)
					}
					heals(t, f, logPath, h.bytes, true, 0)
				})
			}

			// loadsAcked demands a restart that loaded the checkpoint and
			// replayed both logged batches on top: no rebuild, no quarantine.
			loadsAcked := func(t *testing.T, reg *store.Registry, ds store.Dataset, why string) {
				t.Helper()
				if !ds.WasLoaded() || ds.Version() != acked {
					t.Fatalf("%s: loaded=%v version=%d, want true, %d", why, ds.WasLoaded(), ds.Version(), acked)
				}
				if r, p, q := reg.ReplayCount(), reg.PreprocessCount(), reg.QuarantineCount(); r != 2 || p != 0 || q != 0 {
					t.Fatalf("%s: %d replays, %d preprocesses, %d quarantines; want 2, 0, 0", why, r, p, q)
				}
				assertShardOracle(t, k.cs, ds, states[acked], why)
			}
			// Reads that fail fewer times than Recover retries: the restart is
			// indistinguishable from one on a healthy medium.
			t.Run("reads-recover-within-retries", func(t *testing.T) {
				f := serve(t, 100)
				f.Restart()
				f.FailReads(2)
				reg, ds := k.open(t, f, 100)
				loadsAcked(t, reg, ds, "restart over two failed reads")
			})
			// Reads that keep failing: unreadable is not absent. Registration
			// fails, nothing is rebuilt over the artifact, the log holding the
			// acknowledged batches stays, and the healed medium serves them.
			t.Run("reads-keep-failing", func(t *testing.T) {
				f := serve(t, 100)
				f.Restart()
				image := durableImage(t, f)
				f.FailReads(1 << 30)
				reg := store.NewRegistryMedium(&store.Medium{Dir: shardCrashDir, FS: f, CheckpointEvery: 100})
				_, err := k.register(reg)
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("register over an unreadable medium = %v, want the injected read error", err)
				}
				// The medium's fault, not the request's: the server's 500.
				var pe *store.PersistError
				if !errors.As(err, &pe) {
					t.Fatalf("register over an unreadable medium = %v, want a *store.PersistError", err)
				}
				if p, q := reg.PreprocessCount(), reg.QuarantineCount(); p != 0 || q != 0 {
					t.Fatalf("unreadable medium: %d preprocesses, %d quarantines; want 0, 0", p, q)
				}
				if got := durableImage(t, f); got != image {
					t.Fatalf("failed registration changed the durable image:\n got %s\nwant %s", got, image)
				}
				f.Restart()
				reg2, ds := k.open(t, f, 100)
				loadsAcked(t, reg2, ds, "restart on the healed medium")
			})
		})
	}
}
