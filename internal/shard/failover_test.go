package shard_test

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/testkit"
)

// resumeIDs makes every worker of a successor root rejoin as the member the
// same slot of prev held, so the successor's groups admit them under the
// identities their journal reserved.
func resumeIDs(prev *testkit.Live, d time.Duration) func(int, *runtime.ElasticWorkerConfig) {
	return func(i int, wc *runtime.ElasticWorkerConfig) {
		testkit.PerPart(d)(i, wc)
		wc.ResumeID = prev.Workers[i].ID()
	}
}

// TestShardedHostedRootRestart kills a durable root mid-run and restarts it
// from its journal. The groups die with the root; their workers redial the
// restarted root's groups with their member IDs. The restarted root counts
// its resume anchor, holds generation 2, resumes past iteration 0 and
// finishes with the serial SGD result.
func TestShardedHostedRootRestart(t *testing.T) {
	const k, s, iters, m = 8, 1, 24, 6
	fx := testkit.NewFixture(t, k, 12, 100)
	cfg := grouped(fx, s, iters, m)
	dir := t.TempDir()
	cfg.CheckpointDir = dir
	cfg.SnapshotEvery = 3
	cfg.LeaseTTL = 30 * time.Second

	first := testkit.Start(t, fx, cfg, m, testkit.PerPart(2*time.Millisecond))
	root1 := first.Root
	if root1.RootGen() != 1 {
		t.Fatalf("first root got generation %d, want 1", root1.RootGen())
	}
	if err := root1.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = root1.Run() }()

	// Kill the root cold once a few iterations are durable.
	if !testkit.WaitDurableIter(dir, 4, 30*time.Second) {
		t.Fatalf("iteration %d never became durable in %s", 4, dir)
	}
	first.Close()

	cfg2 := cfg
	cfg2.Resume = true
	tel := obs.New()
	cfg2.Obs = tel
	second, err := testkit.Open(fx, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	root2 := second.Root
	// The resume anchor is written with the metrics bound: the snapshot
	// histogram counts it before the run starts.
	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), obs.MSnapshotSeconds+"_count 1") {
		t.Fatalf("resumed bring-up: %s does not count the anchor snapshot", obs.MSnapshotSeconds)
	}
	if root2.RootGen() != 2 {
		t.Fatalf("restarted root got generation %d, want 2", root2.RootGen())
	}
	if root2.StartIter() == 0 {
		t.Fatal("restarted root did not resume from the journal")
	}
	// The groups died with the root; their workers redial the restarted
	// root's groups with their member IDs.
	second.Dial(t, m, resumeIDs(first, 2*time.Millisecond))
	res, err := second.Run(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

	want := serialSGD(t, fx, iters)
	for i := range want {
		if math.Abs(want[i]-res.Params[i]) > 1e-8 {
			t.Fatalf("param %d: restarted run %v vs serial %v — restart broke exactness", i, res.Params[i], want[i])
		}
	}
}

// TestShardedHostedZombieRoot deposes a root that stops renewing its lease
// while it keeps training. A successor claims generation 2; the zombie's run
// fails with ha.ErrFenced naming that generation, its workers follow the
// successor, and training finishes there with the serial SGD result.
func TestShardedHostedZombieRoot(t *testing.T) {
	const k, s, iters, m = 8, 1, 300, 6
	fx := testkit.NewFixture(t, k, 12, 100)
	cfg := grouped(fx, s, iters, m)
	dir := t.TempDir()
	cfg.CheckpointDir = dir
	cfg.SnapshotEvery = 5
	cfg.LeaseTTL = 300 * time.Millisecond
	cfg.IterTimeout = 1 * time.Second

	first := testkit.Start(t, fx, cfg, m, testkit.PerPart(5*time.Millisecond))
	root1 := first.Root
	if err := root1.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := root1.Run()
		errc <- err
	}()

	// Wedge the root: it keeps training but stops renewing. Once the TTL
	// lapses a successor may claim the next generation.
	if !testkit.WaitDurableIter(dir, 3, 30*time.Second) {
		t.Fatalf("iteration %d never became durable in %s", 3, dir)
	}
	root1.SuspendLeaseRenewal()
	time.Sleep(2 * cfg.LeaseTTL)

	cfg2 := cfg
	cfg2.Resume = true
	cfg2.Holder = "shard-root-b"
	cfg2.LeaseTTL = 30 * time.Second
	second, err := testkit.Open(fx, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	root2 := second.Root
	if root2.RootGen() != 2 {
		t.Fatalf("successor got generation %d, want 2", root2.RootGen())
	}

	// The zombie must fail typed, naming the generation that deposed it.
	select {
	case zerr := <-errc:
		if zerr == nil {
			t.Fatal("deposed root finished its run successfully")
		}
		if !errors.Is(zerr, ha.ErrFenced) {
			t.Fatalf("deposed root failed with %v, want ha.ErrFenced", zerr)
		}
		if !strings.Contains(zerr.Error(), "deposed by generation 2") {
			t.Fatalf("fenced error %q does not name generation 2", zerr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deposed root never failed")
	}

	// The zombie closed its workers cold; they follow the successor.
	first.Close()
	second.Dial(t, m, resumeIDs(first, 5*time.Millisecond))
	res, err := second.Run(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := serialSGD(t, fx, iters)
	for i := range want {
		if math.Abs(want[i]-res.Params[i]) > 1e-8 {
			t.Fatalf("param %d: post-takeover run %v vs serial %v", i, res.Params[i], want[i])
		}
	}
}
