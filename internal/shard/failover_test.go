package shard_test

import (
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/shard"
)

// followers runs one reconnecting elastic worker per planned worker slot.
// A worker that loses its connection redials its group's current address
// with its member ID as ResumeID, so it follows a successor root once
// retarget names that root's GroupAddrs. A clean shutdown ends it.
type followers struct {
	wg    sync.WaitGroup
	addrs atomic.Value // []string, indexed by group
	stop  chan struct{}
	once  sync.Once
}

func startFollowers(t *testing.T, r *shard.Root, fx *liveFixture, delay time.Duration) *followers {
	t.Helper()
	f := &followers{stop: make(chan struct{})}
	f.retarget(r)
	for g, grp := range r.Plan().Groups {
		for range grp.Workers {
			f.wg.Add(1)
			go f.follow(g, fx, delay)
		}
	}
	t.Cleanup(f.halt)
	return f
}

// retarget points every worker at r's group addresses.
func (f *followers) retarget(r *shard.Root) { f.addrs.Store(r.GroupAddrs()) }

// halt stops redialing and waits for every worker to exit. The roots must be
// closed first: a worker in a live session exits when its connection dies.
func (f *followers) halt() {
	f.once.Do(func() { close(f.stop) })
	f.wg.Wait()
}

func (f *followers) follow(g int, fx *liveFixture, delay time.Duration) {
	defer f.wg.Done()
	resume := 0
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		w, err := runtime.DialElasticWorker(f.addrs.Load().([]string)[g], runtime.ElasticWorkerConfig{
			Model:             fx.model,
			PartitionData:     func(p int) (*ml.Dataset, error) { return fx.parts[p], nil },
			DelayPerPartition: func(int) time.Duration { return delay },
			DialTimeout:       time.Second,
			ResumeID:          resume,
		})
		if err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		resume = w.ID()
		if w.Run() == nil {
			return // the root shut the group down cleanly
		}
	}
}

// TestShardedHostedRootRestart kills a durable root mid-run and restarts it
// from its journal. The groups die with the root; their workers redial the
// restarted root's groups with their member IDs. The restarted root counts
// its resume anchor, holds generation 2, resumes past iteration 0 and
// finishes with the serial SGD result.
func TestShardedHostedRootRestart(t *testing.T) {
	const k, s, iters, m = 8, 1, 24, 6
	fx := newLiveFixture(t, k)
	cfg := fx.config(k, s, iters, m)
	dir := t.TempDir()
	cfg.CheckpointDir = dir
	cfg.SnapshotEvery = 3
	cfg.LeaseTTL = 30 * time.Second

	root1, err := shard.NewRoot(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root1.Close()
	if root1.RootGen() != 1 {
		t.Fatalf("first root got generation %d, want 1", root1.RootGen())
	}
	workers := startFollowers(t, root1, fx, 2*time.Millisecond)
	if err := root1.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = root1.Run() }()

	// Kill the root cold once a few iterations are durable.
	waitLastIter(t, dir, 4, 30*time.Second)
	root1.Close()

	cfg2 := cfg
	cfg2.Resume = true
	tel := obs.New()
	cfg2.Obs = tel
	root2, err := shard.NewRoot(cfg2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root2.Close()
	workers.retarget(root2)
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
	if err := root2.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := root2.Run()
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
	fx := newLiveFixture(t, k)
	cfg := fx.config(k, s, iters, m)
	dir := t.TempDir()
	cfg.CheckpointDir = dir
	cfg.SnapshotEvery = 5
	cfg.LeaseTTL = 300 * time.Millisecond
	cfg.IterTimeout = 1 * time.Second

	root1, err := shard.NewRoot(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root1.Close()
	workers := startFollowers(t, root1, fx, 5*time.Millisecond)
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
	waitLastIter(t, dir, 3, 30*time.Second)
	root1.SuspendLeaseRenewal()
	time.Sleep(2 * cfg.LeaseTTL)

	cfg2 := cfg
	cfg2.Resume = true
	cfg2.Holder = "shard-root-b"
	cfg2.LeaseTTL = 30 * time.Second
	root2, err := shard.NewRoot(cfg2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root2.Close()
	workers.retarget(root2)
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

	if err := root2.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := root2.Run()
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
