package shard_test

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/estimate"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/transport"
)

type liveFixture struct {
	model *ml.Softmax
	data  *ml.Dataset
	parts []*ml.Dataset
}

func newLiveFixture(t *testing.T, k int) *liveFixture {
	t.Helper()
	data, err := ml.GaussianMixture(k*12, 4, 3, 3, rand.New(rand.NewSource(100)))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Split(k)
	if err != nil {
		t.Fatal(err)
	}
	return &liveFixture{model: &ml.Softmax{InputDim: 4, NumClasses: 3}, data: data, parts: parts}
}

func (f *liveFixture) config(k, s, iters int, m int) shard.Config {
	thr := make([]float64, m)
	for i := range thr {
		thr[i] = 1
	}
	return shard.Config{
		K: k, S: s, GroupSize: 3, FanIn: 2,
		Throughputs:   thr,
		Model:         f.model,
		Optimizer:     &ml.SGD{LR: 0.5},
		InitialParams: f.model.InitParams(nil),
		Iterations:    iters,
		SampleCount:   f.data.N(),
		IterTimeout:   5 * time.Second,
		Seed:          1,
	}
}

// spawnWorkers dials the planned number of elastic workers at every group
// address. delay(group, idx, iter) gives worker idx of a group its
// per-partition delay.
func spawnWorkers(t *testing.T, r *shard.Root, wg *sync.WaitGroup, delay func(g, idx, iter int) time.Duration, fx *liveFixture) {
	t.Helper()
	addrs := r.GroupAddrs()
	for g, grp := range r.Plan().Groups {
		for idx := 0; idx < len(grp.Workers); idx++ {
			cfg := runtime.ElasticWorkerConfig{
				Model:         fx.model,
				PartitionData: func(p int) (*ml.Dataset, error) { return fx.parts[p], nil },
			}
			if delay != nil {
				g, idx := g, idx
				cfg.DelayPerPartition = func(iter int) time.Duration { return delay(g, idx, iter) }
			}
			// Dial sequentially so member IDs within a group are
			// deterministic (idx+1).
			w, err := runtime.DialElasticWorker(addrs[g], cfg)
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
}

// runRoot builds a root on addr, hands it to onListen (which dials the
// workers), waits for every group's workers and trains to completion.
func runRoot(cfg shard.Config, addr string, waitTimeout time.Duration, onListen func(*shard.Root)) (*shard.Result, error) {
	r, err := shard.NewRoot(cfg, addr)
	if err != nil {
		return nil, err
	}
	onListen(r)
	if err := r.WaitForWorkers(waitTimeout); err != nil {
		r.Close()
		return nil, err
	}
	return r.Run()
}

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

// TestShardedRefusesFixedShape: a group holds k_g partitions by capacity (6
// for 3 equal workers at K = 12 and GroupSize 3), while a fixed-shape code
// needs one alive member per partition, so the root refuses the scheme at
// construction instead of failing at the first replan.
func TestShardedRefusesFixedShape(t *testing.T) {
	cfg := newLiveFixture(t, 12).config(12, 1, 3, 6)
	for _, kind := range []core.Kind{core.Naive, core.Cyclic, core.FractionalRepetition} {
		cfg.Scheme = kind
		if r, err := shard.NewRoot(cfg, "127.0.0.1:0"); !errors.Is(err, shard.ErrBadConfig) {
			if r != nil {
				r.Close()
			}
			t.Fatalf("%v: NewRoot err = %v, want ErrBadConfig", kind, err)
		}
	}
}

// TestShardedGroupsListenOnRootHost: every group listens on the host of the
// root's address, so a root bound to a reachable interface hands its workers
// group addresses on that interface, not loopback ones.
func TestShardedGroupsListenOnRootHost(t *testing.T) {
	if lis, err := net.Listen("tcp", "127.0.0.2:0"); err != nil {
		t.Skipf("127.0.0.2 cannot be bound here: %v", err)
	} else {
		lis.Close()
	}
	r, err := shard.NewRoot(newLiveFixture(t, 8).config(8, 1, 3, 6), "127.0.0.2:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for g, addr := range r.GroupAddrs() {
		if host, _, err := net.SplitHostPort(addr); err != nil || host != "127.0.0.2" {
			t.Fatalf("group %d listens on %q, want host 127.0.0.2 (err %v)", g, addr, err)
		}
	}
}

// TestShardedEndToEndExactTraining runs the full hierarchy live on loopback
// — 2 coding groups x 3 workers — and checks the
// result against serial full-batch SGD: the sharded decomposition must be
// exact, not approximate.
func TestShardedEndToEndExactTraining(t *testing.T) {
	const k, s, iters, m = 8, 1, 12, 6
	fx := newLiveFixture(t, k)
	cfg := fx.config(k, s, iters, m)

	var wg sync.WaitGroup
	res, err := runRoot(cfg, "127.0.0.1:0", 5*time.Second, func(r *shard.Root) {
		if r.Plan().NumGroups() != 2 {
			t.Errorf("plan has %d groups, want 2", r.Plan().NumGroups())
		}
		spawnWorkers(t, r, &wg, nil, fx)
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if len(res.IterTimes) != iters {
		t.Fatalf("got %d iterations, want %d", len(res.IterTimes), iters)
	}

	// Serial full-batch SGD with the same partition split and step rule.
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
	for i := range params {
		if math.Abs(params[i]-res.Params[i]) > 1e-8 {
			t.Fatalf("param %d: sharded %v vs serial %v — decomposition not exact", i, res.Params[i], params[i])
		}
	}

	for g, gs := range res.Groups {
		if len(gs.Epochs) != iters {
			t.Fatalf("group %d recorded %d epochs, want %d", g, len(gs.Epochs), iters)
		}
		if len(gs.Replans) == 0 || gs.Replans[0].Reason != "initial" {
			t.Fatalf("group %d missing initial plan: %+v", g, gs.Replans)
		}
	}
}

// TestShardedInt8Uplink runs the hierarchy under an int8 root: every group
// names int8 in its workers' hello acks and the workers upload quantized
// (group sums stay in the root's process, unquantized), so the run must
// complete with finite params and int8 gradient frames must arrive.
func TestShardedInt8Uplink(t *testing.T) {
	const k, s, iters, m = 8, 1, 6, 6
	fx := newLiveFixture(t, k)
	cfg := fx.config(k, s, iters, m)
	cfg.Wire = clustercfg.WireConfig{Codec: "int8"}

	int8In, _, _, _ := transport.WireCodec(byte(grad.CodecInt8))
	var wg sync.WaitGroup
	res, err := runRoot(cfg, "127.0.0.1:0", 5*time.Second, func(r *shard.Root) {
		spawnWorkers(t, r, &wg, nil, fx)
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(res.IterTimes) != iters {
		t.Fatalf("got %d iterations, want %d", len(res.IterTimes), iters)
	}
	for i, v := range res.Params {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("param %d = %v after an int8 run", i, v)
		}
	}
	if after, _, _, _ := transport.WireCodec(byte(grad.CodecInt8)); after <= int8In {
		t.Fatalf("int8 frames in stayed at %d: the uplinks did not quantize", after)
	}
}

// TestShardedGroupLocalMigrationLive slows one group's worker mid-run: the
// drift must migrate that group alone — its epoch advances while the other
// group finishes the whole run on epoch 0.
func TestShardedGroupLocalMigrationLive(t *testing.T) {
	const k, s, iters, m = 8, 1, 30, 6
	fx := newLiveFixture(t, k)
	cfg := fx.config(k, s, iters, m)
	cfg.Alpha = 0.7
	cfg.DriftThreshold = 0.5
	cfg.MinObservations = 2
	cfg.CooldownIters = 2
	// Accurate priors: a 2ms/partition worker processes ~500 partitions/s.
	// (With wildly wrong priors every group would rightly replan once its
	// estimates warm up — warm-up drift is global, not group-local.)
	for i := range cfg.Throughputs {
		cfg.Throughputs[i] = 500
	}

	const (
		fastDelay = 2 * time.Millisecond
		slowDelay = 25 * time.Millisecond
		slowAt    = 6
	)
	var wg sync.WaitGroup
	res, err := runRoot(cfg, "127.0.0.1:0", 5*time.Second, func(r *shard.Root) {
		spawnWorkers(t, r, &wg, func(g, idx, iter int) time.Duration {
			if g == 0 && idx == 0 && iter >= slowAt {
				return slowDelay
			}
			return fastDelay
		}, fx)
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	g0 := res.Groups[0]
	g1 := res.Groups[1]
	if final := g0.Epochs[len(g0.Epochs)-1]; final == 0 {
		t.Fatalf("group 0 never migrated despite a 12x slowdown (epochs %v)", g0.Epochs)
	}
	drift := false
	for _, ev := range g0.Replans {
		if ev.Reason == "drift" {
			drift = true
		}
	}
	if !drift {
		t.Fatalf("group 0 has no drift replan: %+v", g0.Replans)
	}
	for i, e := range g1.Epochs {
		if e != 0 {
			t.Fatalf("group 1 epoch moved to %d at iteration %d — migration was not group-local", e, i)
		}
	}
	for _, ev := range g1.Replans {
		if ev.Reason != "initial" {
			t.Fatalf("group 1 replanned (%+v) though all churn was in group 0", ev)
		}
	}
}

// TestShardedRunFailsWhenGroupLosesQuorum kills a whole group's workers:
// the run must fail with ErrGroupFailed instead of hanging.
func TestShardedRunFailsWhenGroupLosesQuorum(t *testing.T) {
	const k, s, iters, m = 8, 1, 200, 6
	fx := newLiveFixture(t, k)
	cfg := fx.config(k, s, iters, m)
	cfg.IterTimeout = 500 * time.Millisecond

	var wg sync.WaitGroup
	var mu sync.Mutex
	var group0 []*runtime.ElasticWorker
	_, err := runRoot(cfg, "127.0.0.1:0", 5*time.Second, func(r *shard.Root) {
		addrs := r.GroupAddrs()
		for g, grp := range r.Plan().Groups {
			for idx := 0; idx < len(grp.Workers); idx++ {
				w, err := runtime.DialElasticWorker(addrs[g], runtime.ElasticWorkerConfig{
					Model:         fx.model,
					PartitionData: func(p int) (*ml.Dataset, error) { return fx.parts[p], nil },
					DelayPerPartition: func(int) time.Duration {
						return 2 * time.Millisecond
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if g == 0 {
					mu.Lock()
					group0 = append(group0, w)
					mu.Unlock()
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = w.Run()
				}()
			}
		}
		// Kill every group-0 worker shortly after training starts.
		go func() {
			time.Sleep(300 * time.Millisecond)
			mu.Lock()
			for _, w := range group0 {
				_ = w.Close()
			}
			mu.Unlock()
		}()
	})
	if !errors.Is(err, shard.ErrGroupFailed) {
		t.Fatalf("run after group 0 lost its quorum: err = %v, want ErrGroupFailed", err)
	}
	// The group's own reason reaches the caller, not just the missing sum.
	if !strings.Contains(err.Error(), elastic.ErrNotEnoughMembers.Error()) {
		t.Fatalf("run after group 0 lost its quorum: err = %v, want it to name the quorum loss (%v)", err, elastic.ErrNotEnoughMembers)
	}
	wg.Wait()
}

// TestShardedDurableGroupStates runs a durable hierarchy whose groups are all
// hosted by the root and recovers its directory: every group's snapshot
// entry must carry the group's member IDs and the live controller state over
// exactly those members (a promoted root re-plans from it).
func TestShardedDurableGroupStates(t *testing.T) {
	const k, s, iters, m = 8, 1, 9, 6
	fx := newLiveFixture(t, k)
	cfg := fx.config(k, s, iters, m)
	dir := t.TempDir()
	cfg.CheckpointDir = dir
	cfg.SnapshotEvery = 3

	var wg sync.WaitGroup
	var plan *shard.Plan
	_, err := runRoot(cfg, "127.0.0.1:0", 5*time.Second, func(r *shard.Root) {
		plan = r.Plan()
		spawnWorkers(t, r, &wg, nil, fx)
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	st, err := checkpoint.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snap == nil {
		t.Fatal("durable run left no snapshot")
	}
	if len(st.Snap.Groups) != plan.NumGroups() {
		t.Fatalf("snapshot holds %d group entries, want %d", len(st.Snap.Groups), plan.NumGroups())
	}
	for i, gs := range st.Snap.Groups {
		if gs.Group != i {
			t.Fatalf("snapshot entry %d is group %d", i, gs.Group)
		}
		if want := len(plan.Groups[i].Workers); len(gs.Members) != want {
			t.Fatalf("group %d snapshot members %v, want %d IDs", i, gs.Members, want)
		}
		if gs.Ctrl == nil {
			t.Fatalf("group %d snapshot has no controller state", i)
		}
		var ids []int
		for _, ms := range gs.Ctrl.Members {
			ids = append(ids, ms.ID)
		}
		sort.Ints(ids)
		if !slices.Equal(ids, gs.Members) {
			t.Fatalf("group %d controller members %v, snapshot members %v", i, ids, gs.Members)
		}
		if gs.Epoch < 0 {
			t.Fatalf("group %d snapshot epoch %d: it planned", i, gs.Epoch)
		}
	}
}

// TestShardedResumeRestoresEstimates: a resumed root plans every group from
// the throughput estimates its snapshot kept. Group 0's first worker runs 5×
// slower than everyone else; the resumed group 0 controller must already
// rate it below its group mates, not back at the planned priors — also after
// an incarnation that resumed and crashed before its first snapshot, leaving
// only its resume anchor.
func TestShardedResumeRestoresEstimates(t *testing.T) {
	const k, s, iters, m = 8, 1, 8, 6
	for _, tc := range []struct {
		name       string
		anchorOnly int // incarnations that resume and close at once
	}{{"resume", 0}, {"anchor-only-crash", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newLiveFixture(t, k)
			cfg := fx.config(k, s, iters, m)
			cfg.MinObservations = 1
			cfg.CheckpointDir = t.TempDir()
			cfg.SnapshotEvery = 4

			var wg sync.WaitGroup
			delay := func(g, idx, iter int) time.Duration {
				if g == 0 && idx == 0 {
					return 5 * time.Millisecond
				}
				return time.Millisecond
			}
			_, err := runRoot(cfg, "127.0.0.1:0", 5*time.Second, func(r *shard.Root) { spawnWorkers(t, r, &wg, delay, fx) })
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}

			cfg.Resume = true
			for i := 0; i < tc.anchorOnly; i++ {
				crashed, err := shard.NewRoot(cfg, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				crashed.Close()
			}
			r, err := shard.NewRoot(cfg, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			rates := map[int]float64{}
			for _, ms := range r.ControllerState(0).Members {
				rates[ms.ID] = estimate.NewMeterFromState(1, ms.Meter).Rate(cfg.MinObservations)
			}
			if len(rates) != 3 || rates[1] >= rates[2] || rates[1] >= rates[3] {
				t.Fatalf("resumed group 0 estimates %v: the slow member 1 is not rated below the others", rates)
			}
		})
	}
}
