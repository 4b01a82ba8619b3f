package shard_test

import (
	"errors"
	"math"
	"net"
	"slices"
	"sort"
	"strings"
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
	"github.com/hetgc/hetgc/internal/testkit"
	"github.com/hetgc/hetgc/internal/transport"
)

// grouped is a root over fx of m planned workers of equal speed in groups of
// three, reduced along a fan-in-2 tree.
func grouped(fx *testkit.Fixture, s, iters, m int) shard.Config {
	cfg := fx.Config(s, iters)
	cfg.GroupSize, cfg.FanIn = 3, 2
	cfg.Throughputs = make([]float64, m)
	for i := range cfg.Throughputs {
		cfg.Throughputs[i] = 1
	}
	cfg.IterTimeout = 5 * time.Second
	return cfg
}

// serialSGD trains the fixture serially with the same partition split and
// step rule — the exactness reference.
func serialSGD(t *testing.T, fx *testkit.Fixture, iters int) []float64 {
	t.Helper()
	params := fx.Model.InitParams(nil)
	for iter := 0; iter < iters; iter++ {
		sum := make(grad.Gradient, fx.Model.Dim())
		for _, part := range fx.Parts {
			g, err := fx.Model.Gradient(params, part)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sum {
				sum[i] += g[i]
			}
		}
		sum.Scale(1 / float64(fx.Data.N()))
		if err := (&ml.SGD{LR: 0.5}).Step(params, sum); err != nil {
			t.Fatal(err)
		}
	}
	return params
}

// TestShardedRefusesFixedShape: a group holds k_g partitions by capacity (6
// for 3 equal workers at K = 12 and GroupSize 3), while a fixed-shape code
// needs one alive member per partition, so the root refuses the scheme at
// construction instead of failing at the first replan.
func TestShardedRefusesFixedShape(t *testing.T) {
	fx := testkit.NewFixture(t, 12, 12, 100)
	cfg := grouped(fx, 1, 3, 6)
	for _, kind := range []core.Kind{core.Naive, core.Cyclic, core.FractionalRepetition} {
		cfg.Scheme = kind
		if l, err := testkit.Open(fx, cfg); !errors.Is(err, shard.ErrBadConfig) {
			if l != nil {
				l.Close()
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
	fx := testkit.NewFixture(t, 8, 12, 100)
	l, err := testkit.OpenOn("127.0.0.2:0", fx, grouped(fx, 1, 3, 6))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for g, addr := range l.Root.GroupAddrs() {
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
	fx := testkit.NewFixture(t, k, 12, 100)
	l := testkit.Start(t, fx, grouped(fx, s, iters, m), m, nil)
	if l.Root.Plan().NumGroups() != 2 {
		t.Errorf("plan has %d groups, want 2", l.Root.Plan().NumGroups())
	}
	res, err := l.Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.IterTimes) != iters {
		t.Fatalf("got %d iterations, want %d", len(res.IterTimes), iters)
	}

	// Serial full-batch SGD with the same partition split and step rule.
	params := fx.Model.InitParams(nil)
	for iter := 0; iter < iters; iter++ {
		sum := make(grad.Gradient, fx.Model.Dim())
		for _, part := range fx.Parts {
			g, err := fx.Model.Gradient(params, part)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sum {
				sum[i] += g[i]
			}
		}
		sum.Scale(1 / float64(fx.Data.N()))
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

// bigCoder uploads a constant vector in place of its coded gradient, so a
// group's decoded sum is as large as a finite sum can get without overflowing
// first. At s = 0 every partition a worker holds carries the coefficient
// b = 1/c, c its decoding coefficient (drawn from [0, 1)), and the group
// decodes Σ c·y over its three members. Uploading y = min(0.9·MaxFloat64,
// 0.99·MaxFloat64·b/3), each member adds min(0.9·MaxFloat64·c,
// 0.33·MaxFloat64): the sum stays finite, and above MaxFloat64/2 unless two
// members drew a small c.
type bigCoder struct{ ml.Model }

func (bigCoder) CodedGradient(dst grad.Gradient, _ []float64, _ []*ml.Dataset, coeffs []float64) error {
	y := math.Min(0.9*math.MaxFloat64, 0.99*math.MaxFloat64/3*math.Abs(coeffs[0]))
	for i := range dst {
		dst[i] = y
	}
	return nil
}

// TestShardedRefusesOverflowingReduce: each of two groups decodes a finite
// sum above MaxFloat64/2, which passes the group's own check, but the two add
// up to +Inf at the root. The reduce refuses it before the optimizer steps,
// so the run fails typed instead of training on into infinite parameters.
func TestShardedRefusesOverflowingReduce(t *testing.T) {
	const k, s, iters, m = 8, 0, 3, 6
	fx := testkit.NewFixture(t, k, 12, 100)
	l := testkit.Start(t, fx, grouped(fx, s, iters, m), m, func(_ int, wc *runtime.ElasticWorkerConfig) {
		wc.Model = bigCoder{fx.Model}
	})
	res, err := l.Run(5 * time.Second)
	if err == nil || !errors.Is(err, shard.ErrGroupFailed) || !strings.Contains(err.Error(), "reduced") {
		t.Fatalf("run err = %v (result %v), want ErrGroupFailed for the reduced gradient", err, res)
	}
}

// TestFlatRefusesOverflowingDecode: in a root of one group, four members
// uploading MaxFloat64 decode to Σ c·MaxFloat64, past the finite range once
// their c (drawn from [0, 1)) sum above one. The group's decode pass refuses
// the mean before the optimizer steps.
func TestFlatRefusesOverflowingDecode(t *testing.T) {
	const k, s, iters, m = 8, 0, 3, 4
	fx := testkit.NewFixture(t, k, 12, 100)
	cfg := fx.Config(s, iters)
	cfg.MinWorkers = m
	cfg.IterTimeout = 5 * time.Second
	l := testkit.Start(t, fx, cfg, m, func(_ int, wc *runtime.ElasticWorkerConfig) {
		wc.Model = maxCoder{fx.Model}
	})
	res, err := l.Run(5 * time.Second)
	if err == nil || !errors.Is(err, shard.ErrGroupFailed) || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("run err = %v (result %v), want ErrGroupFailed for a non-finite gradient", err, res)
	}
}

// maxCoder uploads MaxFloat64 in every element in place of its coded
// gradient.
type maxCoder struct{ ml.Model }

func (maxCoder) CodedGradient(dst grad.Gradient, _ []float64, _ []*ml.Dataset, _ []float64) error {
	for i := range dst {
		dst[i] = math.MaxFloat64
	}
	return nil
}

// TestShardedInt8Uplink runs the hierarchy under an int8 root: every group
// names int8 in its workers' hello acks and the workers upload quantized
// (group sums stay in the root's process, unquantized), so the run must
// complete with finite params and int8 gradient frames must arrive.
func TestShardedInt8Uplink(t *testing.T) {
	const k, s, iters, m = 8, 1, 6, 6
	fx := testkit.NewFixture(t, k, 12, 100)
	cfg := grouped(fx, s, iters, m)
	cfg.Wire = clustercfg.WireConfig{Codec: "int8"}

	int8In, _, _, _ := transport.WireCodec(byte(grad.CodecInt8))
	res, err := testkit.Start(t, fx, cfg, m, nil).Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
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
	fx := testkit.NewFixture(t, k, 12, 100)
	cfg := grouped(fx, s, iters, m)
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
	// Slot 0 is group 0's first worker.
	res, err := testkit.Start(t, fx, cfg, m, func(i int, wc *runtime.ElasticWorkerConfig) {
		wc.DelayPerPartition = func(iter int) time.Duration {
			if i == 0 && iter >= slowAt {
				return slowDelay
			}
			return fastDelay
		}
	}).Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

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
	fx := testkit.NewFixture(t, k, 12, 100)
	cfg := grouped(fx, s, iters, m)
	cfg.IterTimeout = 500 * time.Millisecond

	l := testkit.Start(t, fx, cfg, m, testkit.PerPart(2*time.Millisecond))
	// Group 0's workers hold the first slots. Kill every one of them
	// shortly after training starts.
	group0 := l.Workers[:len(l.Root.Plan().Groups[0].Workers)]
	go func() {
		time.Sleep(300 * time.Millisecond)
		for _, w := range group0 {
			_ = w.Close()
		}
	}()
	_, err := l.Run(5 * time.Second)
	if !errors.Is(err, shard.ErrGroupFailed) {
		t.Fatalf("run after group 0 lost its quorum: err = %v, want ErrGroupFailed", err)
	}
	// The group's own reason reaches the caller, not just the missing sum.
	if !strings.Contains(err.Error(), elastic.ErrNotEnoughMembers.Error()) {
		t.Fatalf("run after group 0 lost its quorum: err = %v, want it to name the quorum loss (%v)", err, elastic.ErrNotEnoughMembers)
	}
}

// TestShardedDurableGroupStates runs a durable hierarchy whose groups are all
// hosted by the root and recovers its directory: every group's snapshot
// entry must carry the group's member IDs and the live controller state over
// exactly those members (a promoted root re-plans from it).
func TestShardedDurableGroupStates(t *testing.T) {
	const k, s, iters, m = 8, 1, 9, 6
	fx := testkit.NewFixture(t, k, 12, 100)
	cfg := grouped(fx, s, iters, m)
	dir := t.TempDir()
	cfg.CheckpointDir = dir
	cfg.SnapshotEvery = 3

	l := testkit.Start(t, fx, cfg, m, nil)
	plan := l.Root.Plan()
	if _, err := l.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}

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
			fx := testkit.NewFixture(t, k, 12, 100)
			cfg := grouped(fx, s, iters, m)
			cfg.MinObservations = 1
			cfg.CheckpointDir = t.TempDir()
			cfg.SnapshotEvery = 4

			// Slot 0 is group 0's first worker.
			_, err := testkit.Start(t, fx, cfg, m, func(i int, wc *runtime.ElasticWorkerConfig) {
				wc.DelayPerPartition = func(int) time.Duration {
					if i == 0 {
						return 5 * time.Millisecond
					}
					return time.Millisecond
				}
			}).Run(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}

			cfg.Resume = true
			for i := 0; i < tc.anchorOnly; i++ {
				testkit.Start(t, fx, cfg, 0, nil).Close()
			}
			r := testkit.Start(t, fx, cfg, 0, nil).Root
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
