package store

// A plain Store is one committed value behind an atomic pointer: these tests
// hold that publication — a PATCH's commit, a literal's first use — to what
// a lock used to guarantee. All run under -race in CI and loop internally.

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pitract/internal/schemes"
)

// TestStoreReadersPatchesAndRetries races readers and a PATCH writer on one
// store. Delta j inserts key 1000+j, or — every third — deletes the key delta
// j-2 inserted, so the key set at every version is known: each verdict must
// equal that model at exactly the version it carries (single or batch), one
// reader's versions never regress, and once the writer stops the version is
// the number of acknowledged deltas.
func TestStoreReadersPatchesAndRetries(t *testing.T) {
	const deltas = 200
	key := func(j int) int64 { return int64(1000 + j) }
	// model[v] is the key set after v deltas.
	model := make([]map[int64]bool, deltas+1)
	model[0] = map[int64]bool{}
	batches := make([][]byte, deltas)
	for j := range batches {
		next := make(map[int64]bool, len(model[j])+1)
		for k := range model[j] {
			next[k] = true
		}
		if j%3 == 2 {
			batches[j] = schemes.KeysDeleteDelta([]int64{key(j - 2)})
			delete(next, key(j-2))
		} else {
			batches[j] = schemes.KeysDelta([]int64{key(j)})
			next[key(j)] = true
		}
		model[j+1] = next
	}

	reg := NewRegistry("") // memory-only: the race is in the publication, not the file
	st, err := reg.Register("d", schemes.PointSelectionScheme(), schemes.RelationFromKeys(nil))
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var acked atomic.Uint64
	// turns counts reads: the writer lets the four readers take about one
	// each between commits — and they yield after each — so every version is
	// read even where one CPU would let the writer run to the end first.
	var turns atomic.Int64
	var writer, others sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		defer stop.Store(true)
		for j, delta := range batches {
			v, err := reg.ApplyDelta("d", [][]byte{delta})
			if err != nil || v != uint64(j+1) {
				t.Errorf("PATCH %d: version %d, %v", j, v, err)
				return
			}
			acked.Store(v)
			for due := turns.Load() + 4; turns.Load() < due && !t.Failed(); {
				runtime.Gosched()
			}
		}
	}()
	for r := 0; r < 4; r++ {
		others.Add(1)
		go func(r int) {
			defer others.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			var last uint64
			check := func(v uint64, k int64, got bool) bool {
				if v < last {
					t.Errorf("reader %d: version went backwards: %d after %d", r, v, last)
					return false
				}
				last = v
				if want := model[v][k]; got != want {
					t.Errorf("reader %d: key %d at version %d: got %v, the model says %v", r, k, v, got, want)
					return false
				}
				return true
			}
			for i := 0; !stop.Load() || i < 50; i++ {
				turns.Add(1)
				runtime.Gosched()
				if i%4 == 3 {
					ks := make([]int64, 8)
					qs := make([][]byte, len(ks))
					for n := range ks {
						ks[n] = key(rng.Intn(deltas))
						qs[n] = schemes.PointQuery(ks[n])
					}
					vs, err := st.AskBatch(context.Background(), qs, 2)
					if err != nil {
						t.Errorf("reader %d: batch: %v", r, err)
						return
					}
					for n, got := range vs.Answers {
						if !check(vs.Version, ks[n], got) {
							return
						}
					}
					continue
				}
				k := key(rng.Intn(deltas))
				v, err := st.Ask(context.Background(), schemes.PointQuery(k))
				if err != nil {
					t.Errorf("reader %d: ask: %+v, %v", r, v, err)
					return
				}
				if !check(v.Version, k, v.Answer) {
					return
				}
			}
		}(r)
	}
	writer.Wait()
	others.Wait()
	if got := st.Version(); got != acked.Load() || got != deltas {
		t.Fatalf("version %d after %d acknowledged deltas of %d", got, acked.Load(), deltas)
	}
	for j := 0; j < deltas; j++ {
		if got, err := st.Answer(schemes.PointQuery(key(j))); err != nil || got != model[deltas][key(j)] {
			t.Fatalf("after the race key %d reads %v (%v), the model says %v", key(j), got, err, model[deltas][key(j)])
		}
	}
}

// TestStoreLiteralFirstUseRaced assembles a Store by hand, as the benchmark
// ladder and the deadline tests do, and lets every reader method be its first
// use at once: all of them must end up on the one published value, and every
// asker gets a verdict from it.
func TestStoreLiteralFirstUseRaced(t *testing.T) {
	sch := schemes.PointSelectionScheme()
	data := schemes.RelationFromKeys([]int64{2, 4, 6})
	pd := mustPreprocess(t, sch, data)
	hit, miss := schemes.PointQuery(4), schemes.PointQuery(5)
	for round := 0; round < 200; round++ {
		st := &Store{ID: "d", Scheme: sch, Prep: pd, DataSum: SumData(data)}
		uses := []func() bool{
			func() bool { v, err := st.Ask(context.Background(), hit); return err == nil && v.Answer },
			func() bool {
				got, err := st.AnswerBatch([][]byte{miss, hit}, 1)
				return err == nil && !got[0] && got[1]
			},
			func() bool {
				vs, err := st.AskBatch(context.Background(), [][]byte{hit, miss}, 2)
				return err == nil && vs.Answers[0] && !vs.Answers[1]
			},
			func() bool { ok, err := st.Answer(hit); return err == nil && ok },
			func() bool { st.Warm(); ok, err := st.Answer(miss); return err == nil && !ok },
			func() bool { got, v := st.View(); return v == 0 && bytes.Equal(got, pd) },
			func() bool { return st.Version() == 0 && st.PrepBytes() == len(pd) },
			func() bool { return st.SnapshotBytes() == len(EncodeSnapshot(st.Snapshot())) },
		}
		start := make(chan struct{})
		seen := make([]*Committed, len(uses))
		var wg sync.WaitGroup
		for i, use := range uses {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if !use() {
					t.Errorf("round %d: first use %d got no (or a wrong) result", round, i)
				}
				seen[i] = st.state.Load()
			}()
		}
		close(start)
		wg.Wait()
		for i, c := range seen {
			if c == nil || c != seen[0] {
				t.Fatalf("round %d: first use %d ended on committed value %p, use 0 on %p", round, i, c, seen[0])
			}
		}
	}
}

// TestRegisteredStoreRetainsOnlyCommittedPi pins what Register and a reload
// hand out: a store whose only Π is the committed one. After k PATCHes
// nothing on the Store still points at the registration-time Π — Prep was
// never set — and View is the maintained Π, byte-identical to preprocessing
// the final data.
func TestRegisteredStoreRetainsOnlyCommittedPi(t *testing.T) {
	sch := schemes.PointSelectionScheme()
	data := schemes.RelationFromKeys([]int64{2, 4, 6})
	final := mustPreprocess(t, sch, schemes.RelationFromKeys([]int64{2, 4, 6, 11, 12, 13, 14, 15}))
	dir := t.TempDir()
	check := func(what string, st *Store, version uint64, want []byte) {
		t.Helper()
		if st.Prep != nil {
			t.Fatalf("%s: the store holds a Π in Prep beside the committed one", what)
		}
		if got, v := st.View(); v != version || !bytes.Equal(got, want) {
			t.Fatalf("%s: View is %d bytes at version %d, want the %d-byte Π at version %d", what, len(got), v, len(want), version)
		}
	}

	reg := NewRegistry(dir)
	reg.SetCheckpointEvery(3)
	st, err := reg.Register("d", sch, data)
	if err != nil {
		t.Fatal(err)
	}
	check("registered", st, 0, mustPreprocess(t, sch, data))
	for k := int64(1); k <= 5; k++ {
		if _, err := reg.ApplyDelta("d", [][]byte{schemes.KeysDelta([]int64{10 + k})}); err != nil {
			t.Fatal(err)
		}
	}
	check("after 5 PATCHes", st, 5, final)

	// A restart loads the checkpoint (version 3) and replays the logged tail.
	loaded, err := NewRegistry(dir).Register("d", sch, data)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Loaded {
		t.Fatal("the restart rebuilt instead of loading")
	}
	check("reloaded", loaded, 5, final)
}

// TestPatchAllocatesOnePi pins the half of ROADMAP 5(c)'s bound that is
// reached: a PATCH of a sorted-key dataset allocates the maintained Π and
// nothing of its size beside it — Stage's Prepare closes over those bytes
// instead of decoding a second copy. (The other half, |∆Π| rather than |Π|,
// needs a Π that is not one contiguous file.)
func TestPatchAllocatesOnePi(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: nobody else allocates
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = int64(2 * i)
	}
	reg := NewRegistry("") // memory-only: no log record, no checkpoint
	st, err := reg.Register("d", schemes.PointSelectionScheme(), schemes.RelationFromKeys(keys))
	if err != nil {
		t.Fatal(err)
	}
	const patches = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := range int64(patches) {
		batch := make([]int64, 64)
		for i := range batch {
			batch[i] = 2*(64*p+int64(i)) + 1
		}
		if _, err := reg.ApplyDelta("d", [][]byte{schemes.KeysDelta(batch)}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	pi := uint64(st.PrepBytes())
	if per := (after.TotalAlloc - before.TotalAlloc) / patches; per >= pi+pi/2 {
		t.Fatalf("a 64-key PATCH of a %d-byte Π allocates %d bytes, want < 1.5 × |Π|", pi, per)
	}
}

// TestCheckpointMemoisesSnapshotBytes: a checkpoint records the size of the
// file it wrote in the committed value, so the first /v1/stats scrape after a
// checkpointing PATCH reads that size instead of encoding Π again. It is
// measured around that first call: testing.AllocsPerRun's warm-up call would
// hide the encode.
func TestCheckpointMemoisesSnapshotBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: nobody else allocates
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = int64(2 * i)
	}
	dir := t.TempDir()
	reg := NewRegistry(dir) // the default cadence checkpoints every PATCH
	st, err := reg.Register("d", schemes.PointSelectionScheme(), schemes.RelationFromKeys(keys))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ApplyDelta("d", [][]byte{schemes.KeysDelta([]int64{1, 3, 5})}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	size := st.SnapshotBytes()
	runtime.ReadMemStats(&after)
	if pi := uint64(st.PrepBytes()); after.TotalAlloc-before.TotalAlloc >= pi {
		t.Fatalf("the first SnapshotBytes after a checkpoint allocates %d bytes for a %d-byte Π: it encoded the snapshot again",
			after.TotalAlloc-before.TotalAlloc, pi)
	}
	file, err := os.ReadFile(SnapshotPath(dir, "d"))
	if err != nil {
		t.Fatal(err)
	}
	if size != len(file) {
		t.Fatalf("SnapshotBytes = %d, the checkpoint wrote %d bytes", size, len(file))
	}
}
