// The root tests of this directory: each stands a live root up through
// testkit's builder and drives it with real ElasticWorkers (or testkit's
// scripted ones), so they test the worker against the root it trains under.
package runtime_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/testkit"
)

// newFixture is the workload these tests train: k partitions of 20 samples.
func newFixture(t *testing.T, k int) *testkit.Fixture { return testkit.NewFixture(t, k, 20, 300) }

// elasticConfig is the root these tests train fx under: a 10 s collect bound,
// a quick control plane and the loss recorded every iteration.
func elasticConfig(fx *testkit.Fixture, s, iters int) shard.Config {
	cfg := fx.Config(s, iters)
	cfg.IterTimeout = 10 * time.Second
	cfg.Alpha = 0.5
	cfg.MinObservations = 2
	cfg.CooldownIters = 3
	cfg.LossEvery = 1
	cfg.LossFn = func(p []float64) (float64, error) { return ml.MeanLoss(fx.Model, p, fx.Data) }
	return cfg
}

func TestElasticConfigValidation(t *testing.T) {
	model := &ml.Softmax{InputDim: 2, NumClasses: 2}
	good := shard.Config{
		K: 4, S: 1, Model: model, Optimizer: &ml.SGD{LR: 1},
		InitialParams: model.InitParams(nil), Iterations: 1, SampleCount: 1,
		IterTimeout: time.Second,
	}
	bad := []func(c *shard.Config){
		func(c *shard.Config) { c.Model = nil },
		func(c *shard.Config) { c.K = 0 },
		func(c *shard.Config) { c.S = -1 },
		func(c *shard.Config) { c.Iterations = 0 },
		func(c *shard.Config) { c.SampleCount = 0 },
		func(c *shard.Config) { c.IterTimeout = 0 },
		func(c *shard.Config) { c.InitialParams = []float64{1} },
		func(c *shard.Config) { c.MinWorkers = 1; c.S = 2 },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := testkit.Open(nil, cfg); !errors.Is(err, runtime.ErrBadConfig) {
			t.Fatalf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

// TestElasticEndToEndChurn is the acceptance scenario: a live loopback
// cluster where two workers slow ~10x mid-training and another worker
// joins. The control plane must detect the drift, replan, migrate epochs
// atomically, keep converging — and the post-migration iteration times must
// beat a no-replan baseline subjected to the same slowdown.
//
// The scenario is built so load-shedding demonstrably matters: the two
// slowing workers are dialled into slots 0 and 2, which under the uniform
// epoch-0 cyclic allocation (loads [4,4,4,4], k=8) hold identical partition
// sets — so the frozen baseline can never decode without waiting for a slow
// worker, while the adaptive plan starves the slow pair of load.
func TestElasticEndToEndChurn(t *testing.T) {
	const (
		k, s      = 8, 1
		iters     = 36
		slowAt    = 8  // iteration at which slots 0 and 2 slow 10x
		joinAfter = 12 // iteration after which the fifth worker joins
		fastDelay = 2 * time.Millisecond
		slowDelay = 20 * time.Millisecond
	)
	f := newFixture(t, k)

	// run executes one elastic training with 4 initial workers; when
	// adaptive is false the control plane is lobotomised (no drift replans,
	// no joiner), forming the baseline.
	run := func(adaptive bool) *testkit.Outcome {
		cfg := elasticConfig(f, s, iters)
		cfg.MinWorkers = 4
		if adaptive {
			cfg.DriftThreshold = 0.5
		} else {
			cfg.DriftThreshold = 1e9
			cfg.CooldownIters = 1 << 30
		}
		var iterCount atomic.Int64
		// The builder dials sequentially, so member IDs — and therefore
		// epoch-0 slots — are deterministic: workers 0 and 2 are the ones
		// that slow down.
		l := testkit.Start(t, f, cfg, 4, func(i int, wc *runtime.ElasticWorkerConfig) {
			switch {
			case i == 0:
				wc.DelayPerPartition = func(iter int) time.Duration {
					if int64(iter) > iterCount.Load() {
						iterCount.Store(int64(iter))
					}
					if iter >= slowAt {
						return slowDelay
					}
					return fastDelay
				}
			case i == 2:
				wc.DelayPerPartition = func(iter int) time.Duration {
					if iter >= slowAt {
						return slowDelay
					}
					return fastDelay
				}
			default:
				testkit.PerPart(fastDelay)(i, wc)
			}
		})
		var wg sync.WaitGroup
		if adaptive {
			// A fifth worker joins once training is under way.
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !testkit.WaitUntil(10*time.Second, func() bool { return iterCount.Load() >= joinAfter }) {
					return
				}
				w, err := l.Worker(4, testkit.PerPart(fastDelay))
				if err != nil {
					return
				}
				_ = w.Run()
			}()
		}
		res, runErr := l.Run(5 * time.Second)
		wg.Wait()
		if runErr != nil {
			t.Fatal(runErr)
		}
		return res
	}

	adaptive := run(true)
	baseline := run(false)

	if len(adaptive.IterTimes) != iters || len(adaptive.Groups[0].Epochs) != iters {
		t.Fatalf("adaptive completed %d iters, %d epochs", len(adaptive.IterTimes), len(adaptive.Groups[0].Epochs))
	}
	// The control plane must have migrated: initial plan plus at least one
	// churn (join) replan, and epochs must be monotonically non-decreasing.
	if len(adaptive.Groups[0].Replans) < 2 {
		t.Fatalf("replans = %+v, want initial + at least one migration", adaptive.Groups[0].Replans)
	}
	sawChurn := false
	for _, ev := range adaptive.Groups[0].Replans[1:] {
		if ev.Reason == "churn" || ev.Reason == "drift" {
			sawChurn = true
		}
	}
	if !sawChurn {
		t.Fatalf("no churn/drift migration in %+v", adaptive.Groups[0].Replans)
	}
	last := adaptive.Groups[0].Epochs[len(adaptive.Groups[0].Epochs)-1]
	if last < 1 {
		t.Fatalf("final epoch = %d, want ≥ 1", last)
	}
	for i := 1; i < len(adaptive.Groups[0].Epochs); i++ {
		if adaptive.Groups[0].Epochs[i] < adaptive.Groups[0].Epochs[i-1] {
			t.Fatalf("epochs regressed: %v", adaptive.Groups[0].Epochs)
		}
	}
	if adaptive.Groups[0].Joins < 5 {
		t.Fatalf("joins = %d, want ≥ 5 (4 initial + joiner)", adaptive.Groups[0].Joins)
	}
	if adaptive.Groups[0].TelemetrySamples == 0 {
		t.Fatal("no telemetry ingested")
	}
	// Convergence: loss must drop.
	first := adaptive.Curve.Points[0].Y
	final := adaptive.Curve.Points[len(adaptive.Curve.Points)-1].Y
	if final >= first*0.8 {
		t.Fatalf("adaptive loss did not drop: %v -> %v", first, final)
	}
	// Post-migration speed: mean of the last 10 iterations, where the
	// adaptive run has shed load from the slow worker and absorbed the
	// joiner, must beat the frozen-plan baseline under the same slowdown.
	tail := func(xs []float64, n int) float64 {
		sum := 0.0
		for _, x := range xs[len(xs)-n:] {
			sum += x
		}
		return sum / float64(n)
	}
	adaptiveTail := tail(adaptive.IterTimes, 10)
	baselineTail := tail(baseline.IterTimes, 10)
	if adaptiveTail >= baselineTail {
		t.Fatalf("post-migration mean %.4fs not better than no-replan baseline %.4fs",
			adaptiveTail, baselineTail)
	}
}

// TestElasticStaleEpochFenced proves migration atomicity: a worker that
// keeps uploading gradients tagged with a superseded epoch — with poisoned
// payloads that would visibly corrupt training if combined — must have every
// such upload rejected before decode, while training converges on the
// honest workers.
func TestElasticStaleEpochFenced(t *testing.T) {
	const (
		k, s  = 4, 1
		iters = 14
	)
	f := newFixture(t, k)
	cfg := elasticConfig(f, s, iters)
	cfg.MinWorkers = 3
	// The honest workers — any two of the three uploads decode, so they pace
	// the run — take a few milliseconds per partition: the fourth worker
	// below joins by polling, and an undelayed 14-iteration run can be over
	// before it dials in (no migration, nothing stale to fence).
	l := testkit.Start(t, f, cfg, 2, testkit.PerPart(3*time.Millisecond))
	// The stale worker behaves honestly during epoch 0, then — after any
	// migration — tags every upload with epoch 0 and a poisoned payload.
	var wg sync.WaitGroup
	var iterSeen atomic.Int64
	stale := &testkit.Scenario{Behaviors: map[int]testkit.Behavior{0: {PoisonAfterMigration: true}}}
	testkit.DriveWorkers(stale, l.Addrs(3)[2:], f, &wg, &iterSeen)
	// A fourth worker joins mid-run to force a churn migration to epoch 1.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iterSeen.Load() < 4 {
			time.Sleep(5 * time.Millisecond)
		}
		w, err := l.Worker(3, nil)
		if err != nil {
			return
		}
		_ = w.Run()
	}()
	res, runErr := l.Run(5 * time.Second)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Groups[0].StaleEpochRejected == 0 {
		t.Fatal("no stale-epoch uploads were rejected — the fence never engaged")
	}
	finalEpoch := res.Groups[0].Epochs[len(res.Groups[0].Epochs)-1]
	if finalEpoch < 1 {
		t.Fatalf("final epoch %d — the migration this test depends on never happened", finalEpoch)
	}
	// The poison pills must never have reached combine: parameters stay
	// sane and the loss still drops.
	for _, p := range res.Params {
		if p > 1e6 || p < -1e6 {
			t.Fatalf("poisoned parameter %v — a stale gradient was combined", p)
		}
	}
	first := res.Curve.Points[0].Y
	final := res.Curve.Points[len(res.Curve.Points)-1].Y
	if final >= first {
		t.Fatalf("loss did not drop: %v -> %v", first, final)
	}
}

// TestElasticSurvivesDeathsAndRejoin kills two of four workers mid-training
// (potentially making the running epoch undecodable mid-iteration), watches
// the master migrate to the survivors, then rejoins one dead worker under
// its old member ID. All workers run at the same artificial speed so the
// plans stay balanced and the pace is uniform.
func TestElasticSurvivesDeathsAndRejoin(t *testing.T) {
	const (
		k, s    = 6, 1
		iters   = 40
		perPart = 2 * time.Millisecond
	)
	f := newFixture(t, k)
	cfg := elasticConfig(f, s, iters)
	cfg.MinWorkers = 4
	cfg.DriftThreshold = 2.0 // this test is about churn, not drift
	var iterCount atomic.Int64
	// Two stable workers, the first of which also tracks training progress,
	// and two (slots 2 and 3) that die abruptly once training is under way.
	l := testkit.Start(t, f, cfg, 4, func(i int, wc *runtime.ElasticWorkerConfig) {
		wc.DelayPerPartition = func(iter int) time.Duration {
			if i == 0 && int64(iter) > iterCount.Load() {
				iterCount.Store(int64(iter))
			}
			return perPart
		}
	})
	v1, v2 := l.Workers[2], l.Workers[3]

	var wg sync.WaitGroup
	var rejoinedID, wantRejoinID atomic.Int64
	wantRejoinID.Store(int64(v1.ID()))
	wg.Add(1)
	go func() {
		defer wg.Done()
		if !testkit.WaitUntil(10*time.Second, func() bool { return iterCount.Load() >= 6 }) {
			return
		}
		_ = v1.Close()
		_ = v2.Close()
		// Give the master time to notice and migrate, then rejoin v1 under
		// its old identity.
		if !testkit.WaitUntil(10*time.Second, func() bool { return iterCount.Load() >= 14 }) {
			return
		}
		w, err := l.Worker(4, func(_ int, wc *runtime.ElasticWorkerConfig) {
			wc.DelayPerPartition = func(int) time.Duration { return perPart }
			wc.ResumeID = int(wantRejoinID.Load())
		})
		if err != nil {
			return
		}
		rejoinedID.Store(int64(w.ID()))
		_ = w.Run()
	}()

	res, runErr := l.Run(5 * time.Second)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(res.IterTimes) != iters {
		t.Fatalf("completed %d iterations, want %d", len(res.IterTimes), iters)
	}
	if res.Groups[0].Deaths < 2 {
		t.Fatalf("deaths = %d, want ≥ 2", res.Groups[0].Deaths)
	}
	if res.Groups[0].Epochs[len(res.Groups[0].Epochs)-1] < 1 {
		t.Fatalf("epochs = %v — no migration after deaths", res.Groups[0].Epochs)
	}
	if got := rejoinedID.Load(); got == 0 {
		t.Fatal("rejoin never happened")
	} else if want := wantRejoinID.Load(); got != want {
		t.Fatalf("rejoin resumed member %d, want old identity %d", got, want)
	}
	first := res.Curve.Points[0].Y
	final := res.Curve.Points[len(res.Curve.Points)-1].Y
	if final >= first*0.9 {
		t.Fatalf("loss did not drop through churn: %v -> %v", first, final)
	}
}

// trainFleet runs cfg on a loopback cluster of n elastic workers, dialled in
// order so worker i is the i-th member to join; delay (nil for none) is
// worker i's injected delay per iteration.
func trainFleet(t *testing.T, fx *testkit.Fixture, cfg shard.Config, n int, delay func(worker, iter int) time.Duration) (*testkit.Outcome, error) {
	t.Helper()
	var worker func(int, *runtime.ElasticWorkerConfig)
	if delay != nil {
		worker = func(i int, wc *runtime.ElasticWorkerConfig) {
			wc.Delay = func(iter int) time.Duration { return delay(i, iter) }
		}
	}
	l := testkit.Start(t, fx, cfg, n, worker)
	if err := l.Root.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return l.Run(0)
}

// lossDropped reports whether the run's last recorded loss is below frac of
// its first.
func lossDropped(res *testkit.Outcome, frac float64) bool {
	pts := res.Curve.Points
	return len(pts) > 1 && pts[len(pts)-1].Y < frac*pts[0].Y
}

func TestMasterConfigValidation(t *testing.T) {
	model := &ml.Softmax{InputDim: 2, NumClasses: 2}
	good := shard.Config{
		K: 4, S: 1, Scheme: core.Cyclic, Model: model, Optimizer: &ml.SGD{LR: 1},
		InitialParams: model.InitParams(nil), Iterations: 1, SampleCount: 1,
		IterTimeout: time.Second,
	}
	testkit.Start(t, nil, good, 0, nil).Close()
	// A fixed-shape scheme's quorum is K; frac-rep needs s+1 to divide K.
	bad := []func(c *shard.Config){
		func(c *shard.Config) { c.MinWorkers = 3 },
		func(c *shard.Config) { c.Scheme = core.FractionalRepetition; c.S = 2 },
		func(c *shard.Config) { c.Scheme = core.Kind(99) },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := testkit.Open(nil, cfg); !errors.Is(err, runtime.ErrBadConfig) {
			t.Fatalf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestEndToEndHeterAwareTraining(t *testing.T) {
	const k, s, iters = 7, 1, 15
	f := newFixture(t, k)
	res, err := trainFleet(t, f, elasticConfig(f, s, iters), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterTimes) != iters {
		t.Fatalf("got %d iterations", len(res.IterTimes))
	}
	if !lossDropped(res, 0.8) {
		t.Fatalf("loss did not drop: %v", res.Curve.Points)
	}
}

func TestEndToEndGroupBased(t *testing.T) {
	const k, s, iters = 7, 1, 10
	f := newFixture(t, k)
	cfg := elasticConfig(f, s, iters)
	cfg.Scheme = core.GroupBased
	res, err := trainFleet(t, f, cfg, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !lossDropped(res, 1) {
		t.Fatalf("group-based loss did not drop: %v", res.Curve.Points)
	}
}

// TestEndToEndToleratesStraggler: under cyclic s=1 one member 300 ms late
// every iteration is the erasure the code absorbs. No iteration waits for it,
// and its slow telemetry never moves the plan: the code ignores estimates.
func TestEndToEndToleratesStraggler(t *testing.T) {
	const k, s, iters = 5, 1, 8
	const late = 300 * time.Millisecond
	f := newFixture(t, k)
	cfg := elasticConfig(f, s, iters)
	cfg.Scheme = core.Cyclic
	res, err := trainFleet(t, f, cfg, k, func(worker, _ int) time.Duration {
		if worker == 0 {
			return late
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterTimes) != iters {
		t.Fatalf("got %d iterations", len(res.IterTimes))
	}
	for i, sec := range res.IterTimes {
		if sec >= late.Seconds() {
			t.Fatalf("iteration %d took %.3fs: it waited for the straggler", i, sec)
		}
	}
	if len(res.Groups[0].Replans) != 1 {
		t.Fatalf("replans = %+v, want the initial plan only", res.Groups[0].Replans)
	}
}

// TestEndToEndNaiveTimesOutOnDeadWorker: naive needs every member, so one
// delayed far past IterTimeout times the iteration out. It is still alive, so
// each forced migration replans the same members, and the retry budget ends
// the run with ErrIterationTimeout.
func TestEndToEndNaiveTimesOutOnDeadWorker(t *testing.T) {
	const k = 3
	f := newFixture(t, k)
	cfg := elasticConfig(f, 0, 3)
	cfg.Scheme = core.Naive
	cfg.IterTimeout = 400 * time.Millisecond
	_, err := trainFleet(t, f, cfg, k, func(worker, _ int) time.Duration {
		if worker == k-1 {
			return time.Second
		}
		return 0
	})
	if !errors.Is(err, runtime.ErrIterationTimeout) || errors.Is(err, runtime.ErrMigrationFailed) {
		t.Fatalf("err = %v, want ErrIterationTimeout with every member alive", err)
	}
}

// TestFailFastWhenDecodeImpossible: naive needs every member, so one that
// hangs up before its first upload leaves fewer than K to plan over. The
// forced migration fails at once instead of burning the 30 s IterTimeout.
func TestFailFastWhenDecodeImpossible(t *testing.T) {
	const k = 3
	f := newFixture(t, k)
	cfg := elasticConfig(f, 0, 5)
	cfg.Scheme = core.Naive
	cfg.IterTimeout = 30 * time.Second
	l := testkit.Start(t, f, cfg, k, nil)
	if err := l.Root.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	_ = l.Workers[k-1].Close()

	start := time.Now()
	_, runErr := l.Run(0)
	elapsed := time.Since(start)
	if !errors.Is(runErr, runtime.ErrMigrationFailed) {
		t.Fatalf("err = %v, want ErrMigrationFailed", runErr)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("fail-fast took %v — the iteration timeout leaked in", elapsed)
	}
}

// TestWorkerDiesMidTrainingConverges: under cyclic s=1 a plan member that
// dies after three iterations leaves K-1 alive — too few to replan, enough to
// decode. The plan stands with the dead member as an erasure, every
// iteration completes and the loss still drops.
func TestWorkerDiesMidTrainingConverges(t *testing.T) {
	const k, s, iters = 4, 1, 12
	f := newFixture(t, k)
	cfg := elasticConfig(f, s, iters)
	cfg.Scheme = core.Cyclic
	// The honest workers take a declared 5 ms per partition, so twelve
	// iterations outlast the dying member's fourth broadcast and its
	// hang-up lands mid-run.
	l := testkit.Start(t, f, cfg, k-1, testkit.PerPart(5*time.Millisecond))
	// The dying member uploads honestly for three iterations and hangs up on
	// the fourth broadcast.
	var wg sync.WaitGroup
	var progress atomic.Int64
	dying := &testkit.Scenario{Behaviors: map[int]testkit.Behavior{0: {KillAtIter: 3}}}
	testkit.DriveWorkers(dying, l.Addrs(k)[k-1:], f, &wg, &progress)
	res, runErr := l.Run(5 * time.Second)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(res.IterTimes) != iters {
		t.Fatalf("completed %d iterations, want %d", len(res.IterTimes), iters)
	}
	if res.Groups[0].Deaths != 1 || len(res.Groups[0].Replans) != 1 || res.Groups[0].Replans[0].Reason != "initial" {
		t.Fatalf("deaths = %d, replans = %+v: want one death and the initial plan only", res.Groups[0].Deaths, res.Groups[0].Replans)
	}
	if !lossDropped(res, 0.8) {
		t.Fatalf("loss did not drop after mid-training death: %v", res.Curve.Points)
	}
}
