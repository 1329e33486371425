package store

// The request-budget suite: RegisterContext must abandon builds that
// outrun their context — returning a BudgetError and leaving no catalog
// entry in any interleaving — while concurrent waiters still share one
// build, and ApplyDeltaContext must refuse expired contexts with nothing
// applied. These pin the contract the server's 503 taxonomy stands on.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pitract/internal/core"
	"pitract/internal/schemes"
)

// gatedScheme returns a scheme whose Preprocess blocks until gate is
// closed, so tests control exactly when a build completes.
func gatedScheme(gate <-chan struct{}) *core.Scheme {
	return &core.Scheme{
		SchemeName: "test/gated",
		Preprocess: func(d []byte) ([]byte, error) {
			<-gate
			return append([]byte(nil), d...), nil
		},
		Prepare: core.ProbeInPlace(func(pd, q []byte) (bool, error) { return len(pd) > 0, nil }),
	}
}

// TestRegisterContextBudgetExceeded pins the headline contract: a
// registration whose context expires mid-build returns a BudgetError
// wrapping the context's error, and once the abandoned build drains the
// catalog holds no entry — the id is free for a clean retry.
func TestRegisterContextBudgetExceeded(t *testing.T) {
	reg := NewRegistry("")
	gate := make(chan struct{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()

	_, err := reg.RegisterContext(ctx, "d", gatedScheme(gate), []byte{1})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expired registration returned %v, want a BudgetError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("BudgetError %v does not wrap context.DeadlineExceeded", err)
	}

	// Let the abandoned build finish; its result must be dropped. A Get
	// can transiently observe the still-in-flight entry (it behaves like a
	// build waiter), so poll until the commit-and-drop lands.
	close(gate)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := reg.Get("d"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned build is still addressable")
		}
		time.Sleep(time.Millisecond)
	}
	if n := reg.Len(); n != 0 {
		t.Fatalf("abandoned build left %d catalog entries", n)
	}

	// The id is free: a fresh registration builds from scratch and lands.
	open := make(chan struct{})
	close(open)
	if _, err := reg.RegisterContext(context.Background(), "d", gatedScheme(open), []byte{1}); err != nil {
		t.Fatalf("re-registering after an abandoned build: %v", err)
	}
	if reg.Len() != 1 {
		t.Fatalf("catalog has %d entries after retry, want 1", reg.Len())
	}
}

// TestRegisterContextExpiredUpfront pins the cheap path: an
// already-expired context is refused before any build starts.
func TestRegisterContextExpiredUpfront(t *testing.T) {
	reg := NewRegistry("")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	scheme := &core.Scheme{
		SchemeName: "test/never",
		Preprocess: func(d []byte) ([]byte, error) { called = true; return d, nil },
		Prepare:    core.ProbeInPlace(func(pd, q []byte) (bool, error) { return true, nil }),
	}
	_, err := reg.RegisterContext(ctx, "d", scheme, []byte{1})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expired-upfront registration returned %v, want a BudgetError", err)
	}
	if called {
		t.Fatal("preprocess ran under an already-expired context")
	}
	if reg.Len() != 0 {
		t.Fatal("expired-upfront registration left a catalog entry")
	}
}

// TestRegisterContextWaiterSharesBuild pins the future semantics under
// budgets: a second registration for an id being built waits and shares
// the result, and a waiter whose own context expires gives up with a
// BudgetError without abandoning the build — the builder's registration
// still commits.
func TestRegisterContextWaiterSharesBuild(t *testing.T) {
	reg := NewRegistry("")
	gate := make(chan struct{})
	started := make(chan struct{})
	scheme := &core.Scheme{
		SchemeName: "test/gated",
		Preprocess: func(d []byte) ([]byte, error) {
			close(started)
			<-gate
			return append([]byte(nil), d...), nil
		},
		Prepare: core.ProbeInPlace(func(pd, q []byte) (bool, error) { return len(pd) > 0, nil }),
	}

	var wg sync.WaitGroup
	builderErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := reg.RegisterContext(context.Background(), "d", scheme, []byte{1})
		builderErr <- err
	}()
	<-started // the build is in flight; everyone below is a waiter

	// An impatient waiter times out with a BudgetError — and must not
	// abandon the build it was merely waiting on.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	_, err := reg.RegisterContext(ctx, "d", scheme, []byte{1})
	cancel()
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("impatient waiter returned %v, want a BudgetError", err)
	}

	// A patient waiter shares the committed build.
	waiterErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := reg.RegisterContext(context.Background(), "d", scheme, []byte{1})
		waiterErr <- err
	}()

	close(gate)
	wg.Wait()
	if err := <-builderErr; err != nil {
		t.Fatalf("builder failed: %v", err)
	}
	if err := <-waiterErr; err != nil {
		t.Fatalf("patient waiter failed: %v", err)
	}
	// The impatient waiter's timeout must not have abandoned the build.
	if reg.Len() != 1 {
		t.Fatalf("catalog has %d entries, want 1 (impatient waiter must not abandon)", reg.Len())
	}
	st, ok := reg.Get("d")
	if !ok {
		t.Fatal("committed build missing")
	}
	if got, err := st.Answer(nil); err != nil || !got {
		t.Fatalf("shared build answers (%v, %v), want (true, nil)", got, err)
	}
}

// TestApplyDeltaContextExpired pins maintenance budgets: an expired
// context refuses the batch as a BudgetError with nothing applied — the
// served Π, the version, and the delta counter are untouched.
func TestApplyDeltaContextExpired(t *testing.T) {
	reg := NewRegistry("")
	data := schemes.RelationFromKeys([]int64{2, 4, 6})
	st, err := reg.Register("d", schemes.PointSelectionScheme(), data)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = reg.ApplyDeltaContext(ctx, "d", [][]byte{schemes.KeysDelta([]int64{9})})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expired delta batch returned %v, want a BudgetError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BudgetError %v does not wrap context.Canceled", err)
	}
	if v := st.Version(); v != 0 {
		t.Fatalf("version %d after refused batch, want 0", v)
	}
	if ok, _ := st.Answer(schemes.PointQuery(9)); ok {
		t.Fatal("refused delta is visible")
	}
	if reg.DeltaCount() != 0 {
		t.Fatalf("delta counter %d after refused batch, want 0", reg.DeltaCount())
	}
}
