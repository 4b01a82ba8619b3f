package shard

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/transport"
)

// serialSGD trains the fixture serially with the same partition split and
// step rule — the exactness reference.
func serialSGD(t *testing.T, fx *liveFixture, iters int) []float64 {
	t.Helper()
	params := fx.model.InitParams(nil)
	for iter := 0; iter < iters; iter++ {
		sum := make(grad.Gradient, fx.model.Dim())
		for _, part := range fx.parts {
			g, err := fx.model.Gradient(params, part)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sum {
				sum[i] += g[i]
			}
		}
		sum.Scale(1 / float64(fx.data.N()))
		if err := (&ml.SGD{LR: 0.5}).Step(params, sum); err != nil {
			t.Fatal(err)
		}
	}
	return params
}

// spawnRunnerWorkers dials the planned worker count for one group at a
// runner's own address.
func spawnRunnerWorkers(t *testing.T, rn *GroupRunner, count int, wg *sync.WaitGroup, delay time.Duration, fx *liveFixture) {
	t.Helper()
	for idx := 0; idx < count; idx++ {
		cfg := runtime.ElasticWorkerConfig{
			Model:         fx.model,
			PartitionData: func(p int) (*ml.Dataset, error) { return fx.parts[p], nil },
		}
		if delay > 0 {
			cfg.DelayPerPartition = func(int) time.Duration { return delay }
		}
		w, err := runtime.DialElasticWorker(rn.Addr(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run()
		}()
	}
}

// waitLastIter polls the checkpoint directory until the journal records a
// completed iteration >= iter.
func waitLastIter(t *testing.T, dir string, iter int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st, err := checkpoint.Recover(dir); err == nil && st.LastIter >= iter {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("iteration %d never became durable in %s", iter, dir)
}

// TestGroupRunnerServesExternalGroup runs group 0 out-of-process behind a
// GroupRunner (pinned root address, no journal) and group 1 in-process: the
// mixed hierarchy must train to the exact serial result.
func TestGroupRunnerServesExternalGroup(t *testing.T) {
	const k, s, iters, m = 8, 1, 12, 6
	fx := newLiveFixture(t, k)
	cfg := fx.config(k, s, iters, m)
	cfg.ExternalGroups = []int{0}

	r, err := NewRoot(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rn, err := StartGroup(GroupRunnerConfig{
		Config: cfg, Group: 0, WorkerAddr: "127.0.0.1:0", RootAddr: r.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()
	if rn.Group() != 0 {
		t.Fatalf("runner serves group %d, want 0", rn.Group())
	}

	var wg sync.WaitGroup
	spawnRunnerWorkers(t, rn, len(r.Plan().Groups[0].Workers), &wg, 0, fx)
	if err := rn.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	addrs := r.GroupAddrs()
	if addrs[0] != "" {
		t.Fatalf("external group 0 has an in-process address %q", addrs[0])
	}
	for idx := 0; idx < len(r.Plan().Groups[1].Workers); idx++ {
		w, err := runtime.DialElasticWorker(addrs[1], runtime.ElasticWorkerConfig{
			Model:         fx.model,
			PartitionData: func(p int) (*ml.Dataset, error) { return fx.parts[p], nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run()
		}()
	}
	if err := r.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	want := serialSGD(t, fx, iters)
	for i := range want {
		if math.Abs(want[i]-res.Params[i]) > 1e-8 {
			t.Fatalf("param %d: external-group run %v vs serial %v", i, res.Params[i], want[i])
		}
	}
	if wantUploads := 2 * iters; res.GroupUploads != wantUploads {
		t.Fatalf("root accepted %d uploads, want %d", res.GroupUploads, wantUploads)
	}
	if res.Readoptions != 0 {
		t.Fatalf("unexpected re-adoptions in a crash-free run: %d (%v)", res.Readoptions, res.Failovers)
	}
	select {
	case <-rn.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("runner did not shut down after the root's MsgShutdown")
	}
	if err := rn.Err(); err != nil {
		t.Fatalf("runner exited with %v after a clean shutdown", err)
	}
	if st := rn.Stats(); st.FencedRejected != 0 {
		t.Fatalf("crash-free runner fenced %d uploads", st.FencedRejected)
	}
}

// TestGroupRunnerSurvivesRootRestart kills the root mid-run and restarts it
// from its journal: both external runners — and their workers, which never
// reconnect — must be re-adopted by the new root via lease-token discovery,
// and the finished run must still match serial SGD exactly.
func TestGroupRunnerSurvivesRootRestart(t *testing.T) {
	const k, s, iters, m = 8, 1, 24, 6
	fx := newLiveFixture(t, k)
	cfg := fx.config(k, s, iters, m)
	dir := t.TempDir()
	cfg.CheckpointDir = dir
	cfg.SnapshotEvery = 3
	cfg.LeaseTTL = 30 * time.Second
	cfg.ExternalGroups = []int{0, 1}

	root1, err := NewRoot(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if root1.RootGen() != 1 {
		t.Fatalf("first root got generation %d, want 1", root1.RootGen())
	}
	var runners []*GroupRunner
	for g := 0; g < 2; g++ {
		rn, err := StartGroup(GroupRunnerConfig{
			Config: cfg, Group: g, WorkerAddr: "127.0.0.1:0",
			RootDir:    dir,
			JournalDir: filepath.Join(t.TempDir(), "journal"),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rn.Stop()
		runners = append(runners, rn)
	}
	var wg sync.WaitGroup
	for g, rn := range runners {
		spawnRunnerWorkers(t, rn, len(root1.Plan().Groups[g].Workers), &wg, 2*time.Millisecond, fx)
	}
	if err := root1.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = root1.Run() }()

	// Kill the root cold once a few iterations are durable.
	waitLastIter(t, dir, 4, 30*time.Second)
	root1.Close()

	// The restarted root resumes the journal, bumps the lease generation and
	// re-adopts the still-running groups.
	cfg2 := cfg
	cfg2.Resume = true
	tel := obs.New()
	cfg2.Obs = tel
	root2, err := NewRoot(cfg2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root2.Close()
	// The resume anchor is written with the metrics bound: the snapshot
	// histogram counts it before the run starts, as in the flat runtime.
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
	wg.Wait()

	want := serialSGD(t, fx, iters)
	for i := range want {
		if math.Abs(want[i]-res.Params[i]) > 1e-8 {
			t.Fatalf("param %d: failover run %v vs serial %v — restart broke exactness", i, res.Params[i], want[i])
		}
	}
	if res.Readoptions != 2 {
		t.Fatalf("new root re-adopted %d groups, want 2 (%v)", res.Readoptions, res.Failovers)
	}
	for g, rn := range runners {
		if got := rn.Gen(); got != 2 {
			t.Fatalf("runner %d still on generation %d after takeover", g, got)
		}
	}
}

// TestShardedZombieRootFenced deposes a root that stops renewing its lease:
// a successor acquires the next generation, both runners defect to it, the
// zombie's run fails typed with ha.ErrFenced, and training completes
// exactly under the new root.
func TestShardedZombieRootFenced(t *testing.T) {
	const k, s, iters, m = 8, 1, 300, 6
	fx := newLiveFixture(t, k)
	cfg := fx.config(k, s, iters, m)
	dir := t.TempDir()
	cfg.CheckpointDir = dir
	cfg.SnapshotEvery = 5
	cfg.LeaseTTL = 300 * time.Millisecond
	cfg.IterTimeout = 1 * time.Second
	cfg.ExternalGroups = []int{0, 1}

	root1, err := NewRoot(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root1.Close()
	var runners []*GroupRunner
	for g := 0; g < 2; g++ {
		rn, err := StartGroup(GroupRunnerConfig{
			Config: cfg, Group: g, WorkerAddr: "127.0.0.1:0", RootDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rn.Stop()
		runners = append(runners, rn)
	}
	var wg sync.WaitGroup
	for g, rn := range runners {
		spawnRunnerWorkers(t, rn, len(root1.Plan().Groups[g].Workers), &wg, 5*time.Millisecond, fx)
	}
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
	root2, err := NewRoot(cfg2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root2.Close()
	if root2.RootGen() != 2 {
		t.Fatalf("successor got generation %d, want 2", root2.RootGen())
	}
	if err := root2.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := root2.Run()
	if err != nil {
		t.Fatal(err)
	}

	// The zombie must fail typed: its groups defected and its lease is gone.
	select {
	case zerr := <-errc:
		if zerr == nil {
			t.Fatal("deposed root finished its run successfully")
		}
		if !errors.Is(zerr, ha.ErrFenced) {
			t.Fatalf("deposed root failed with %v, want ha.ErrFenced", zerr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deposed root never failed")
	}
	wg.Wait()

	want := serialSGD(t, fx, iters)
	for i := range want {
		if math.Abs(want[i]-res.Params[i]) > 1e-8 {
			t.Fatalf("param %d: post-takeover run %v vs serial %v", i, res.Params[i], want[i])
		}
	}
	for g, rn := range runners {
		if got := rn.Gen(); got != 2 {
			t.Fatalf("runner %d never defected to generation 2 (at %d)", g, got)
		}
	}
}

// TestGroupRunnerRefusesBadAck: a listener that acks another group can never
// adopt this one, so the runner ends at once with ErrBadConfig instead of
// re-dialing it forever.
func TestGroupRunnerRefusesBadAck(t *testing.T) {
	fx := newLiveFixture(t, 8)
	cfg := fx.config(8, 1, 3, 6)
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := conn.Recv(); err != nil {
					return
				}
				_ = conn.Send(&transport.Envelope{Type: transport.MsgAdopt, Adopt: &transport.Adoption{Group: 1}})
				_, _ = conn.Recv() // hold the connection until the runner hangs up
			}()
		}
	}()
	rn, err := StartGroup(GroupRunnerConfig{Config: cfg, Group: 0, WorkerAddr: "127.0.0.1:0", RootAddr: lis.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()
	select {
	case <-rn.Done():
	case <-time.After(time.Second):
		t.Fatal("runner still retrying a root that acks another group")
	}
	if err := rn.Err(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("runner exited with %v, want ErrBadConfig", err)
	}
}
