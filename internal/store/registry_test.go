package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"pitract/internal/core"
	"pitract/internal/graph"
	"pitract/internal/schemes"
)

// countingScheme wraps a scheme so tests can observe Preprocess calls.
func countingScheme(s *core.Scheme, calls *int32, mu *sync.Mutex) *core.Scheme {
	wrapped := *s
	inner := s.Preprocess
	wrapped.Preprocess = func(d []byte) ([]byte, error) {
		mu.Lock()
		*calls++
		mu.Unlock()
		return inner(d)
	}
	return &wrapped
}

// TestRegistryConcurrentRegister races many goroutines registering the same
// dataset: all must receive the same memoized store and exactly one
// Preprocess may run. Run under -race.
func TestRegistryConcurrentRegister(t *testing.T) {
	r := NewRegistry("")
	var calls int32
	var mu sync.Mutex
	scheme := countingScheme(schemes.PointSelectionScheme(), &calls, &mu)
	data := schemes.RelationFromKeys([]int64{2, 4, 6, 8})

	const goroutines = 32
	stores := make([]*Store, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			stores[i], errs[i] = r.Register("keys", scheme, data)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if stores[i] != stores[0] {
			t.Fatalf("goroutine %d got a different store instance", i)
		}
	}
	if calls != 1 {
		t.Fatalf("Preprocess ran %d times, want exactly 1", calls)
	}
	if got := r.PreprocessCount(); got != 1 {
		t.Fatalf("PreprocessCount = %d, want 1", got)
	}
}

// TestRegistryConcurrentRegisterAndQuery mixes registrations of distinct
// datasets with queries against already-registered ones, under -race.
func TestRegistryConcurrentRegisterAndQuery(t *testing.T) {
	r := NewRegistry("")
	g := graph.RandomDirected(64, 256, 7)
	reach := schemes.ReachabilityScheme()
	if _, err := r.Register("graph", reach, g.Encode()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("keys-%d", i)
			scheme := schemes.PointSelectionScheme()
			st, err := r.Register(id, scheme, schemes.RelationFromKeys([]int64{int64(i), 100}))
			if err != nil {
				t.Errorf("register %s: %v", id, err)
				return
			}
			ok, err := st.Answer(schemes.PointQuery(int64(i)))
			if err != nil || !ok {
				t.Errorf("%s: answer ok=%v err=%v", id, ok, err)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			st, ok := r.Get("graph")
			if !ok {
				t.Error("graph store missing")
				return
			}
			queries := [][]byte{
				schemes.NodePairQuery(i%64, (i*7)%64),
				schemes.NodePairQuery((i*3)%64, i%64),
			}
			if _, err := st.AnswerBatch(queries, 4); err != nil {
				t.Errorf("batch: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if got := len(r.IDs()); got != 17 {
		t.Fatalf("registered %d datasets, want 17", got)
	}
}

// TestRegistryDoubleRegistration re-registers an existing ID: same store
// back, no second Preprocess; a different scheme under the same ID errors.
func TestRegistryDoubleRegistration(t *testing.T) {
	r := NewRegistry("")
	var calls int32
	var mu sync.Mutex
	scheme := countingScheme(schemes.PointSelectionScheme(), &calls, &mu)
	data := schemes.RelationFromKeys([]int64{1, 2, 3})

	st1, err := r.Register("d", scheme, data)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := r.Register("d", scheme, data)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatal("double registration returned a different store")
	}
	if calls != 1 {
		t.Fatalf("Preprocess ran %d times, want 1", calls)
	}
	if _, err := r.Register("d", schemes.ReachabilityScheme(), data); err == nil {
		t.Fatal("re-registering with a different scheme must error")
	}
	if _, err := r.Register("d", scheme, schemes.RelationFromKeys([]int64{9, 9, 9})); err == nil {
		t.Fatal("re-registering with different data must error, not serve the stale store")
	}
}

// TestRegistryPersistence restarts the registry on the same directory: the
// second incarnation reloads the snapshot byte-identically and never calls
// Preprocess.
func TestRegistryPersistence(t *testing.T) {
	dir := t.TempDir()
	data := schemes.RelationFromKeys([]int64{10, 20, 30})
	var calls int32
	var mu sync.Mutex

	r1 := NewRegistry(dir)
	st1, err := r1.Register("my/data set", countingScheme(schemes.PointSelectionScheme(), &calls, &mu), data)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("first run: %d Preprocess calls, want 1", calls)
	}

	r2 := NewRegistry(dir)
	st2, err := r2.Register("my/data set", countingScheme(schemes.PointSelectionScheme(), &calls, &mu), data)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("after restart: %d Preprocess calls, want still 1 (snapshot reload)", calls)
	}
	if !st2.Loaded || r2.LoadCount() != 1 {
		t.Fatalf("restart did not reload from snapshot (loaded=%v loads=%d)", st2.Loaded, r2.LoadCount())
	}
	pd1, _ := st1.View()
	if pd2, _ := st2.View(); len(pd2) == 0 || !bytes.Equal(pd1, pd2) {
		t.Fatal("reloaded Π(D) differs from the original")
	}

	// Changed data under the same ID must not serve the stale snapshot.
	r3 := NewRegistry(dir)
	st3, err := r3.Register("my/data set", countingScheme(schemes.PointSelectionScheme(), &calls, &mu),
		schemes.RelationFromKeys([]int64{99}))
	if err != nil {
		t.Fatal(err)
	}
	if st3.Loaded || calls != 2 {
		t.Fatalf("changed data: loaded=%v calls=%d, want fresh preprocess", st3.Loaded, calls)
	}
}

// TestRegistryFailedRegistrationRetries drops failed registrations so a
// corrected retry works.
func TestRegistryFailedRegistrationRetries(t *testing.T) {
	r := NewRegistry("")
	bad := &core.Scheme{
		SchemeName: "always-fails",
		Preprocess: func(d []byte) ([]byte, error) { return nil, fmt.Errorf("boom") },
		Answer:     func(pd, q []byte) (bool, error) { return false, nil },
	}
	if _, err := r.Register("d", bad, nil); err == nil {
		t.Fatal("failing Preprocess must surface an error")
	}
	if _, ok := r.Get("d"); ok {
		t.Fatal("failed registration left a store behind")
	}
	if _, err := r.Register("d", schemes.PointSelectionScheme(), schemes.RelationFromKeys([]int64{1})); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
}

// TestRegistryPanickingPreprocess: a Preprocess that panics (hostile data
// can trigger e.g. makeslice range panics inside scheme decoders) must come
// back as an error, not wedge the id — e.done must still close so later
// Register/Get calls neither block forever nor see a half-built store.
func TestRegistryPanickingPreprocess(t *testing.T) {
	r := NewRegistry("")
	bad := &core.Scheme{
		SchemeName: "panics",
		Preprocess: func(d []byte) ([]byte, error) { panic("hostile input") },
		Answer:     func(pd, q []byte) (bool, error) { return false, nil },
	}
	st, err := r.Register("d", bad, nil)
	if err == nil || st != nil {
		t.Fatalf("panicking Preprocess: got store=%v err=%v, want nil store + error", st, err)
	}
	done := make(chan struct{})
	go func() {
		if _, ok := r.Get("d"); ok {
			t.Error("panicked registration left a store behind")
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Get blocked after panicked registration — done channel never closed")
	}
	if _, err := r.Register("d", schemes.PointSelectionScheme(), schemes.RelationFromKeys([]int64{1})); err != nil {
		t.Fatalf("retry after panic: %v", err)
	}
}
