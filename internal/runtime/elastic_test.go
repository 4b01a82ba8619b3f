package runtime

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/transport"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// elasticFixture is shared scaffolding for elastic end-to-end tests: a
// dataset split into k partitions and a softmax model.
type elasticFixture struct {
	model *ml.Softmax
	data  *ml.Dataset
	parts []*ml.Dataset
}

func newElasticFixture(t *testing.T, k int) *elasticFixture {
	t.Helper()
	data, err := ml.GaussianMixture(k*20, 4, 3, 3, rng(300))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Split(k)
	if err != nil {
		t.Fatal(err)
	}
	return &elasticFixture{model: &ml.Softmax{InputDim: 4, NumClasses: 3}, data: data, parts: parts}
}

func (f *elasticFixture) masterConfig(k, s, iters int) ElasticConfig {
	return ElasticConfig{
		K: k, S: s,
		Model:           f.model,
		Optimizer:       &ml.SGD{LR: 0.5},
		InitialParams:   f.model.InitParams(nil),
		Iterations:      iters,
		SampleCount:     f.data.N(),
		IterTimeout:     10 * time.Second,
		Alpha:           0.5,
		MinObservations: 2,
		CooldownIters:   3,
		Seed:            1,
		LossEvery:       1,
		LossFn: func(p []float64) (float64, error) {
			return ml.MeanLoss(f.model, p, f.data)
		},
	}
}

// spawnElasticWorker runs one elastic worker in a goroutine. perPart returns
// the artificial per-partition compute delay for an iteration — the knob
// that emulates machine speed.
func (f *elasticFixture) spawnElasticWorker(t *testing.T, addr string, wg *sync.WaitGroup, perPart func(iter int) time.Duration) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		w, err := DialElasticWorker(addr, ElasticWorkerConfig{
			Model:             f.model,
			PartitionData:     func(p int) (*ml.Dataset, error) { return f.parts[p], nil },
			DelayPerPartition: perPart,
		})
		if err != nil {
			return // master may be gone after a test failure
		}
		_ = w.Run()
	}()
}

func TestElasticConfigValidation(t *testing.T) {
	model := &ml.Softmax{InputDim: 2, NumClasses: 2}
	good := ElasticConfig{
		K: 4, S: 1, Model: model, Optimizer: &ml.SGD{LR: 1},
		InitialParams: model.InitParams(nil), Iterations: 1, SampleCount: 1,
		IterTimeout: time.Second,
	}
	bad := []func(c *ElasticConfig){
		func(c *ElasticConfig) { c.Model = nil },
		func(c *ElasticConfig) { c.K = 0 },
		func(c *ElasticConfig) { c.S = -1 },
		func(c *ElasticConfig) { c.Iterations = 0 },
		func(c *ElasticConfig) { c.IterTimeout = 0 },
		func(c *ElasticConfig) { c.InitialParams = []float64{1} },
		func(c *ElasticConfig) { c.MinWorkers = 1; c.S = 2 },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := NewElasticMaster(cfg, "127.0.0.1:0"); !errors.Is(err, ErrBadConfig) {
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
	f := newElasticFixture(t, k)

	// run executes one elastic training with 4 initial workers; when
	// adaptive is false the control plane is lobotomised (no drift replans,
	// no joiner), forming the baseline.
	run := func(adaptive bool) *ElasticResult {
		cfg := f.masterConfig(k, s, iters)
		cfg.MinWorkers = 4
		if adaptive {
			cfg.DriftThreshold = 0.5
		} else {
			cfg.DriftThreshold = 1e9
			cfg.CooldownIters = 1 << 30
		}
		master, err := NewElasticMaster(cfg, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var iterCount atomic.Int64
		// Dial sequentially so member IDs — and therefore epoch-0 slots —
		// are deterministic: workers 0 and 2 are the ones that slow down.
		for i := 0; i < 4; i++ {
			var perPart func(iter int) time.Duration
			switch {
			case i == 0:
				perPart = func(iter int) time.Duration {
					if int64(iter) > iterCount.Load() {
						iterCount.Store(int64(iter))
					}
					if iter >= slowAt {
						return slowDelay
					}
					return fastDelay
				}
			case i == 2:
				perPart = func(iter int) time.Duration {
					if iter >= slowAt {
						return slowDelay
					}
					return fastDelay
				}
			default:
				perPart = func(int) time.Duration { return fastDelay }
			}
			w, err := DialElasticWorker(master.Addr(), ElasticWorkerConfig{
				Model:             f.model,
				PartitionData:     func(p int) (*ml.Dataset, error) { return f.parts[p], nil },
				DelayPerPartition: perPart,
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
		if adaptive {
			// A fifth worker joins once training is under way.
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !waitUntil(10*time.Second, func() bool { return iterCount.Load() >= joinAfter }) {
					return
				}
				w, err := DialElasticWorker(master.Addr(), ElasticWorkerConfig{
					Model:             f.model,
					PartitionData:     func(p int) (*ml.Dataset, error) { return f.parts[p], nil },
					DelayPerPartition: func(int) time.Duration { return fastDelay },
				})
				if err != nil {
					return
				}
				_ = w.Run()
			}()
		}
		if err := master.WaitForWorkers(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		res, runErr := master.Run()
		wg.Wait()
		if runErr != nil {
			t.Fatal(runErr)
		}
		return res
	}

	adaptive := run(true)
	baseline := run(false)

	if len(adaptive.IterTimes) != iters || len(adaptive.Epochs) != iters {
		t.Fatalf("adaptive completed %d iters, %d epochs", len(adaptive.IterTimes), len(adaptive.Epochs))
	}
	// The control plane must have migrated: initial plan plus at least one
	// churn (join) replan, and epochs must be monotonically non-decreasing.
	if len(adaptive.Replans) < 2 {
		t.Fatalf("replans = %+v, want initial + at least one migration", adaptive.Replans)
	}
	sawChurn := false
	for _, ev := range adaptive.Replans[1:] {
		if ev.Reason == "churn" || ev.Reason == "drift" {
			sawChurn = true
		}
	}
	if !sawChurn {
		t.Fatalf("no churn/drift migration in %+v", adaptive.Replans)
	}
	last := adaptive.Epochs[len(adaptive.Epochs)-1]
	if last < 1 {
		t.Fatalf("final epoch = %d, want ≥ 1", last)
	}
	for i := 1; i < len(adaptive.Epochs); i++ {
		if adaptive.Epochs[i] < adaptive.Epochs[i-1] {
			t.Fatalf("epochs regressed: %v", adaptive.Epochs)
		}
	}
	if adaptive.Joins < 5 {
		t.Fatalf("joins = %d, want ≥ 5 (4 initial + joiner)", adaptive.Joins)
	}
	if adaptive.TelemetrySamples == 0 {
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
	f := newElasticFixture(t, k)
	cfg := f.masterConfig(k, s, iters)
	cfg.MinWorkers = 3
	master, err := NewElasticMaster(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// The honest workers — any two of the three uploads decode, so they pace
	// the run — take a few milliseconds per partition: the fourth worker
	// below joins by polling, and an undelayed 14-iteration run can be over
	// before it dials in (no migration, nothing stale to fence).
	for i := 0; i < 2; i++ {
		f.spawnElasticWorker(t, master.Addr(), &wg, func(int) time.Duration { return 3 * time.Millisecond })
	}
	// The stale worker behaves honestly during epoch 0, then — after any
	// migration — tags every upload with epoch 0 and a poisoned payload.
	var iterSeen atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := transport.Dial(master.Addr(), 5*time.Second)
		if err != nil {
			return
		}
		defer conn.Close()
		if err := conn.Send(&transport.Envelope{Type: transport.MsgHello, WorkerID: transport.HelloNewWorker}); err != nil {
			return
		}
		ack, err := conn.Recv()
		if err != nil || ack.Type != transport.MsgHello {
			return
		}
		var assign *transport.Assignment
		for {
			env, err := conn.Recv()
			if err != nil || env.Type == transport.MsgShutdown {
				return
			}
			switch env.Type {
			case transport.MsgReassign:
				assign = env.Assign
			case transport.MsgParams:
				if assign == nil {
					continue
				}
				iterSeen.Store(int64(env.Iter))
				out := &transport.Envelope{Type: transport.MsgGradient, Iter: env.Iter, WorkerID: ack.WorkerID}
				if env.Epoch == 0 {
					// Honest epoch-0 participation (compute the real coded
					// gradient so early iterations train correctly).
					vec, gerr := codedGradient(f.model, f.parts, assign, env.Vector)
					if gerr != nil {
						return
					}
					out.Epoch = 0
					out.Vector = vec
				} else {
					// Stale epoch + poison: 1e12 in every coordinate would
					// blow up the parameters if it ever reached combine.
					poison := make([]float64, len(env.Vector))
					for i := range poison {
						poison[i] = 1e12
					}
					out.Epoch = 0 // deliberately stale
					out.Vector = poison
				}
				if err := conn.Send(out); err != nil {
					return
				}
				tel := &transport.Envelope{
					Type: transport.MsgTelemetry, Iter: env.Iter, Epoch: env.Epoch,
					Telemetry: &transport.Telemetry{ComputeSeconds: 0.001, Partitions: len(assign.Partitions)},
				}
				if err := conn.Send(tel); err != nil {
					return
				}
			}
		}
	}()
	// A fourth worker joins mid-run to force a churn migration to epoch 1.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iterSeen.Load() < 4 {
			time.Sleep(5 * time.Millisecond)
		}
		w, err := DialElasticWorker(master.Addr(), ElasticWorkerConfig{
			Model:         f.model,
			PartitionData: func(p int) (*ml.Dataset, error) { return f.parts[p], nil },
		})
		if err != nil {
			return
		}
		_ = w.Run()
	}()
	if err := master.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, runErr := master.Run()
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.StaleEpochRejected == 0 {
		t.Fatal("no stale-epoch uploads were rejected — the fence never engaged")
	}
	finalEpoch := res.Epochs[len(res.Epochs)-1]
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

// codedGradient computes the honest coded gradient for an assignment, with
// the same kernel real workers use.
func codedGradient(model ml.Model, parts []*ml.Dataset, assign *transport.Assignment, params []float64) ([]float64, error) {
	partials := make([]grad.Gradient, len(assign.Partitions))
	for i, p := range assign.Partitions {
		g, err := model.Gradient(params, parts[p])
		if err != nil {
			return nil, err
		}
		partials[i] = g
	}
	coded := make([]float64, len(params))
	if err := grad.EncodeInto(coded, assign.RowCoeffs, partials); err != nil {
		return nil, err
	}
	return coded, nil
}

// waitUntil polls cond every 5ms until it holds or the timeout expires;
// returns whether it held. Keeps churn-scripting goroutines from spinning
// forever when the master exits early.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
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
	f := newElasticFixture(t, k)
	cfg := f.masterConfig(k, s, iters)
	cfg.MinWorkers = 4
	cfg.DriftThreshold = 2.0 // this test is about churn, not drift
	master, err := NewElasticMaster(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var iterCount atomic.Int64
	// Two stable workers; the first also tracks training progress.
	f.spawnElasticWorker(t, master.Addr(), &wg, func(iter int) time.Duration {
		if int64(iter) > iterCount.Load() {
			iterCount.Store(int64(iter))
		}
		return perPart
	})
	f.spawnElasticWorker(t, master.Addr(), &wg, func(int) time.Duration { return perPart })

	// Two workers that die abruptly once training is under way.
	victims := make(chan *ElasticWorker, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := DialElasticWorker(master.Addr(), ElasticWorkerConfig{
				Model:             f.model,
				PartitionData:     func(p int) (*ml.Dataset, error) { return f.parts[p], nil },
				DelayPerPartition: func(int) time.Duration { return perPart },
			})
			if err != nil {
				return
			}
			victims <- w
			_ = w.Run() // returns when the test closes the conn
		}()
	}
	if err := master.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	var rejoinedID, wantRejoinID atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		v1 := <-victims
		v2 := <-victims
		wantRejoinID.Store(int64(v1.ID()))
		if !waitUntil(10*time.Second, func() bool { return iterCount.Load() >= 6 }) {
			return
		}
		_ = v1.Close()
		_ = v2.Close()
		// Give the master time to notice and migrate, then rejoin v1 under
		// its old identity.
		if !waitUntil(10*time.Second, func() bool { return iterCount.Load() >= 14 }) {
			return
		}
		w, err := DialElasticWorker(master.Addr(), ElasticWorkerConfig{
			Model:             f.model,
			PartitionData:     func(p int) (*ml.Dataset, error) { return f.parts[p], nil },
			DelayPerPartition: func(int) time.Duration { return perPart },
			ResumeID:          int(wantRejoinID.Load()),
		})
		if err != nil {
			return
		}
		rejoinedID.Store(int64(w.ID()))
		_ = w.Run()
	}()

	res, runErr := master.Run()
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(res.IterTimes) != iters {
		t.Fatalf("completed %d iterations, want %d", len(res.IterTimes), iters)
	}
	if res.Deaths < 2 {
		t.Fatalf("deaths = %d, want ≥ 2", res.Deaths)
	}
	if res.Epochs[len(res.Epochs)-1] < 1 {
		t.Fatalf("epochs = %v — no migration after deaths", res.Epochs)
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
func (f *elasticFixture) trainFleet(t *testing.T, cfg ElasticConfig, n int, delay func(worker, iter int) time.Duration) (*ElasticResult, error) {
	t.Helper()
	master, err := NewElasticMaster(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wc := ElasticWorkerConfig{
			Model:         f.model,
			PartitionData: func(p int) (*ml.Dataset, error) { return f.parts[p], nil },
		}
		if delay != nil {
			i := i
			wc.Delay = func(iter int) time.Duration { return delay(i, iter) }
		}
		w, err := DialElasticWorker(master.Addr(), wc)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run()
		}()
	}
	if err := master.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := master.Run()
	wg.Wait()
	return res, err
}

// lossDropped reports whether the run's last recorded loss is below frac of
// its first.
func lossDropped(res *ElasticResult, frac float64) bool {
	pts := res.Curve.Points
	return len(pts) > 1 && pts[len(pts)-1].Y < frac*pts[0].Y
}

func TestMasterConfigValidation(t *testing.T) {
	model := &ml.Softmax{InputDim: 2, NumClasses: 2}
	good := ElasticConfig{
		K: 4, S: 1, Scheme: core.Cyclic, Model: model, Optimizer: &ml.SGD{LR: 1},
		InitialParams: model.InitParams(nil), Iterations: 1, SampleCount: 1,
		IterTimeout: time.Second,
	}
	master, err := NewElasticMaster(good, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master.Close()
	// A fixed-shape scheme's quorum is K; frac-rep needs s+1 to divide K.
	bad := []func(c *ElasticConfig){
		func(c *ElasticConfig) { c.MinWorkers = 3 },
		func(c *ElasticConfig) { c.Scheme = core.FractionalRepetition; c.S = 2 },
		func(c *ElasticConfig) { c.Scheme = core.Kind(99) },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := NewElasticMaster(cfg, "127.0.0.1:0"); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestDialWorkerValidation(t *testing.T) {
	if _, err := DialElasticWorker("127.0.0.1:1", ElasticWorkerConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestEndToEndHeterAwareTraining(t *testing.T) {
	const k, s, iters = 7, 1, 15
	f := newElasticFixture(t, k)
	res, err := f.trainFleet(t, f.masterConfig(k, s, iters), 5, nil)
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
	f := newElasticFixture(t, k)
	cfg := f.masterConfig(k, s, iters)
	cfg.Scheme = core.GroupBased
	res, err := f.trainFleet(t, cfg, 5, nil)
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
	f := newElasticFixture(t, k)
	cfg := f.masterConfig(k, s, iters)
	cfg.Scheme = core.Cyclic
	res, err := f.trainFleet(t, cfg, k, func(worker, _ int) time.Duration {
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
	if len(res.Replans) != 1 {
		t.Fatalf("replans = %+v, want the initial plan only", res.Replans)
	}
}

// TestEndToEndNaiveTimesOutOnDeadWorker: naive needs every member, so one
// delayed far past IterTimeout times the iteration out. It is still alive, so
// each forced migration replans the same members, and the retry budget ends
// the run with ErrIterationTimeout.
func TestEndToEndNaiveTimesOutOnDeadWorker(t *testing.T) {
	const k = 3
	f := newElasticFixture(t, k)
	cfg := f.masterConfig(k, 0, 3)
	cfg.Scheme = core.Naive
	cfg.IterTimeout = 400 * time.Millisecond
	_, err := f.trainFleet(t, cfg, k, func(worker, _ int) time.Duration {
		if worker == k-1 {
			return time.Second
		}
		return 0
	})
	if !errors.Is(err, ErrIterationTimeout) || errors.Is(err, ErrMigrationFailed) {
		t.Fatalf("err = %v, want ErrIterationTimeout with every member alive", err)
	}
}

// TestFailFastWhenDecodeImpossible: naive needs every member, so one that
// hangs up before its first upload leaves fewer than K to plan over. The
// forced migration fails at once instead of burning the 30 s IterTimeout.
func TestFailFastWhenDecodeImpossible(t *testing.T) {
	const k = 3
	f := newElasticFixture(t, k)
	cfg := f.masterConfig(k, 0, 5)
	cfg.Scheme = core.Naive
	cfg.IterTimeout = 30 * time.Second
	master, err := NewElasticMaster(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < k-1; i++ {
		f.spawnElasticWorker(t, master.Addr(), &wg, nil)
	}
	dying, err := DialElasticWorker(master.Addr(), ElasticWorkerConfig{
		Model:         f.model,
		PartitionData: func(p int) (*ml.Dataset, error) { return f.parts[p], nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := master.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	_ = dying.Close()

	start := time.Now()
	_, runErr := master.Run()
	elapsed := time.Since(start)
	wg.Wait()
	if !errors.Is(runErr, ErrMigrationFailed) {
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
	f := newElasticFixture(t, k)
	cfg := f.masterConfig(k, s, iters)
	cfg.Scheme = core.Cyclic
	master, err := NewElasticMaster(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// The honest workers take a declared 5 ms per partition, so twelve
	// iterations outlast the dying member's fourth broadcast and its
	// hang-up lands mid-run.
	for i := 0; i < k-1; i++ {
		f.spawnElasticWorker(t, master.Addr(), &wg, func(int) time.Duration { return 5 * time.Millisecond })
	}
	// The dying member uploads honestly for three iterations and hangs up on
	// the fourth broadcast.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := transport.Dial(master.Addr(), 5*time.Second)
		if err != nil {
			return
		}
		defer conn.Close()
		if err := conn.Send(&transport.Envelope{Type: transport.MsgHello, WorkerID: transport.HelloNewWorker}); err != nil {
			return
		}
		if ack, err := conn.Recv(); err != nil || ack.Type != transport.MsgHello {
			return
		}
		var assign *transport.Assignment
		for n := 0; ; {
			env, err := conn.Recv()
			if err != nil || env.Type == transport.MsgShutdown {
				return
			}
			switch env.Type {
			case transport.MsgReassign:
				assign = env.Assign
			case transport.MsgParams:
				if n++; n > 3 {
					return
				}
				vec, err := codedGradient(f.model, f.parts, assign, env.Vector)
				if err != nil {
					return
				}
				if conn.Send(&transport.Envelope{Type: transport.MsgGradient, Iter: env.Iter, Epoch: env.Epoch, Vector: vec}) != nil {
					return
				}
			}
		}
	}()
	if err := master.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, runErr := master.Run()
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(res.IterTimes) != iters {
		t.Fatalf("completed %d iterations, want %d", len(res.IterTimes), iters)
	}
	if res.Deaths != 1 || len(res.Replans) != 1 || res.Replans[0].Reason != "initial" {
		t.Fatalf("deaths = %d, replans = %+v: want one death and the initial plan only", res.Deaths, res.Replans)
	}
	if !lossDropped(res, 0.8) {
		t.Fatalf("loss did not drop after mid-training death: %v", res.Curve.Points)
	}
}
