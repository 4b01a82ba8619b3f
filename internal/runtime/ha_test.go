package runtime

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/ha"
)

// TestElasticLeaseLifecycle runs a leased master to completion: it must hold
// generation 1 throughout, renew in the background, fence nothing, and leave
// the lease expired-in-place on a clean exit so a standby is never left
// waiting a full TTL for a root that is already gone.
func TestElasticLeaseLifecycle(t *testing.T) {
	const k, s, iters = 4, 1, 6
	fx := newElasticFixture(t, k)
	cfg := fx.masterConfig(k, s, iters)
	cfg.CheckpointDir = t.TempDir()
	cfg.SnapshotEvery = 2
	cfg.LeaseTTL = 200 * time.Millisecond

	ma, err := NewElasticMaster(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	if got := ma.RootGen(); got != 1 {
		t.Fatalf("fresh leased master holds generation %d, want 1", got)
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		// Slow iterations past the renew cadence (TTL/3) so the run exercises
		// background renewal, not just the initial acquisition.
		fx.spawnElasticWorker(t, ma.Addr(), &wg, func(int) time.Duration { return 15 * time.Millisecond })
	}
	if err := ma.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := ma.Run()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if res.RootGen != 1 {
		t.Fatalf("result reports generation %d, want 1", res.RootGen)
	}
	if res.Groups[0].FencedRejected != 0 {
		t.Fatalf("crash-free run fenced %d uploads", res.Groups[0].FencedRejected)
	}
	tok, err := ha.ReadToken(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Gen != 1 {
		t.Fatalf("lease file holds generation %d after the run, want 1", tok.Gen)
	}
	if !tok.Expired(time.Now()) {
		t.Fatal("clean shutdown left a live lease behind")
	}
}

// TestElasticDeposedMasterFenced wedges a leased master before it trains:
// renewal is suspended, the lease lapses, and a usurper acquires generation
// 2. The deposed master's run must fail wrapping ha.ErrFenced and name the
// generation that superseded it, without touching the usurper's claim.
func TestElasticDeposedMasterFenced(t *testing.T) {
	const k, s, iters = 4, 1, 6
	fx := newElasticFixture(t, k)
	cfg := fx.masterConfig(k, s, iters)
	dir := t.TempDir()
	cfg.CheckpointDir = dir
	cfg.SnapshotEvery = 2
	cfg.LeaseTTL = 150 * time.Millisecond

	ma, err := NewElasticMaster(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	ma.SuspendLeaseRenewal()

	deadline := time.Now().Add(10 * time.Second)
	for {
		tok, err := ha.ReadToken(dir)
		if err != nil {
			t.Fatal(err)
		}
		if tok.Expired(time.Now()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("suspended lease never lapsed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	usurper, err := ha.Acquire(dir, "usurper", "127.0.0.1:9", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer usurper.Release()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		fx.spawnElasticWorker(t, ma.Addr(), &wg, nil)
	}
	if err := ma.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, err = ma.Run()
	if !errors.Is(err, ha.ErrFenced) {
		t.Fatalf("deposed master failed with %v, want ha.ErrFenced", err)
	}
	if !strings.Contains(err.Error(), "deposed by generation 2") {
		t.Fatalf("fenced error does not name the usurping generation: %v", err)
	}
	ma.Close()
	wg.Wait()

	if got := usurper.Gen(); got != 2 {
		t.Fatalf("usurper holds generation %d after fencing, want 2", got)
	}
	if err := usurper.Verify(); err != nil {
		t.Fatalf("usurper's claim was disturbed: %v", err)
	}
}
