package ha_test

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/ha"
)

// TestZombieStoreRefusesStaleGeneration pins the journal side of fencing: a
// store guarded by a lease accepts appends while the lease is the highest
// generation and refuses them typed — ErrFenced — the moment a successor
// claims the directory.
func TestZombieStoreRefusesStaleGeneration(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	a, err := ha.Acquire(dir, "a", "", 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.SetGuard(a.Check)
	if err := store.AppendIter(0, 0, 1); err != nil {
		t.Fatalf("append under a live lease: %v", err)
	}

	// The holder goes quiet; after expiry a successor claims generation 2.
	time.Sleep(120 * time.Millisecond)
	b, err := ha.Acquire(dir, "b", "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if err := store.AppendIter(1, 0, 2); !errors.Is(err, ha.ErrFenced) {
		t.Fatalf("stale-generation append = %v, want ha.ErrFenced", err)
	}
	if err := store.WriteSnapshot(&checkpoint.Snapshot{Iter: 2, Epoch: -1}); !errors.Is(err, ha.ErrFenced) {
		t.Fatalf("stale-generation snapshot = %v, want ha.ErrFenced", err)
	}
}
