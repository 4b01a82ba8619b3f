package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/straggler"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// paperSpeeds is the Example 1 cluster: c = [1 2 3 4 4], k = 7, s = 1.
var paperSpeeds = []float64{1, 2, 3, 4, 4}

// frozen simulates one scheme at fixed true speeds c (datasets/second) the
// way the paper's figures do: no churn, and the plan frozen at its build
// from the true speeds. A scheme with K partitions runs its members at c·K
// partitions/second; a fixed-shape one has K = m.
func frozen(kind core.Kind, c []float64, k, s, iters int, seed int64) ElasticSimConfig {
	if kind.FixedShape() {
		k = len(c)
	}
	rates := make([]float64, len(c))
	for i, v := range c {
		rates[i] = v * float64(k)
	}
	return ElasticSimConfig{
		K: k, S: s, Scheme: kind,
		InitialRates: rates, Estimates: rates,
		Iterations:     iters,
		DriftThreshold: math.Inf(1),
		Seed:           seed,
	}
}

func run(t *testing.T, cfg ElasticSimConfig) *ElasticSimResult {
	t.Helper()
	res, err := RunElastic(cfg)
	if err != nil {
		t.Fatalf("%v: %v", cfg.Scheme, err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	bad := []func(c *ElasticSimConfig){
		func(c *ElasticSimConfig) { c.Estimates = []float64{1} },
		func(c *ElasticSimConfig) { c.Estimates = []float64{1, 2, 3, 4, 0} },
		func(c *ElasticSimConfig) { c.FluctuationStd = -0.1 },
		func(c *ElasticSimConfig) { c.RecordEvery = -1 },
		func(c *ElasticSimConfig) { c.Scheme = core.Kind(99) },
	}
	for i, mutate := range bad {
		cfg := frozen(core.HeterAware, paperSpeeds, 7, 1, 1, 1)
		mutate(&cfg)
		if _, err := RunElastic(cfg); !errors.Is(err, ErrBadChurn) {
			t.Fatalf("config %d: err = %v, want ErrBadChurn", i, err)
		}
	}
}

func TestDeterministicNoDelayTimes(t *testing.T) {
	// Heter-aware, no noise, no delay: every worker finishes at
	// (n_i/k)/c_i = (s+1)/Σc = 2/14 seconds exactly (Theorem 5).
	res := run(t, frozen(core.HeterAware, paperSpeeds, 7, 1, 5, 1))
	if res.Failed != 0 {
		t.Fatalf("failed = %d", res.Failed)
	}
	want := 2.0 / 14
	for _, tm := range res.Times {
		if math.Abs(tm-want) > 1e-9 {
			t.Fatalf("iteration time %v, want %v (the optimal (s+1)/Σc)", tm, want)
		}
	}
	// Naive: uniform k=m=5 split; slowest worker (c=1) needs (1/5)/1 = 0.2s.
	resN := run(t, frozen(core.Naive, paperSpeeds, 7, 1, 3, 1))
	if math.Abs(resN.AvgIterTime()-0.2) > 1e-9 {
		t.Fatalf("naive time %v, want 0.2", resN.AvgIterTime())
	}
}

func TestHeterAwareOptimalMakespan(t *testing.T) {
	// Theorem 5: T(B) = (s+1)k/Σc_i in partition units, (s+1)/Σc in datasets.
	res := run(t, frozen(core.HeterAware, []float64{2, 2, 4, 4, 8, 8}, 14, 1, 2, 4))
	want := 2.0 / 28
	if math.Abs(res.AvgIterTime()-want) > 1e-9 {
		t.Fatalf("time %v, want %v", res.AvgIterTime(), want)
	}
}

func TestStragglerToleranceUnderDelay(t *testing.T) {
	for _, kind := range []core.Kind{core.HeterAware, core.GroupBased, core.Cyclic} {
		cfg := frozen(kind, paperSpeeds, 7, 1, 10, 5)
		cfg.Injector = straggler.Fixed{Count: 1, Delay: 100}
		res := run(t, cfg)
		if res.Failed != 0 {
			t.Fatalf("%v: %d failures", kind, res.Failed)
		}
		// Coded schemes must not absorb the 100s delay.
		if res.Summary.Max > 50 {
			t.Fatalf("%v: max iter time %v — delay not tolerated", kind, res.Summary.Max)
		}
	}
}

func TestNaiveAbsorbsDelayAndFailsOnCrash(t *testing.T) {
	cfg := frozen(core.Naive, paperSpeeds, 7, 1, 5, 6)
	cfg.Injector = straggler.Fixed{Count: 1, Delay: 100}
	if res := run(t, cfg); res.Summary.Min < 100 {
		t.Fatalf("naive should absorb the full delay, min=%v", res.Summary.Min)
	}
	cfg = frozen(core.Naive, paperSpeeds, 7, 1, 4, 7)
	cfg.Injector = straggler.Fixed{Count: 1, Delay: math.Inf(1)}
	res := run(t, cfg)
	if res.Failed != 4 || !math.IsInf(res.AvgIterTime(), 1) {
		t.Fatalf("naive under crash: failed = %d, avg %v, want 4 and +Inf", res.Failed, res.AvgIterTime())
	}
}

func TestCodedSurvivesCrash(t *testing.T) {
	for _, kind := range []core.Kind{core.HeterAware, core.GroupBased} {
		cfg := frozen(kind, paperSpeeds, 7, 1, 10, 8)
		cfg.Injector = straggler.Fixed{Count: 1, Delay: math.Inf(1)}
		if res := run(t, cfg); res.Failed != 0 {
			t.Fatalf("%v: %d failures under crash", kind, res.Failed)
		}
	}
}

func TestCyclicSlowerThanHeterOnHeterogeneousCluster(t *testing.T) {
	resH := run(t, frozen(core.HeterAware, paperSpeeds, 7, 1, 20, 1))
	resC := run(t, frozen(core.Cyclic, paperSpeeds, 7, 1, 20, 3))
	// Cyclic gives the slowest worker (c=1) a load of s+1=2 partitions of
	// size 1/m; decode waits for m−s = 4 workers, still bounded below by
	// the 4th-slowest completion.
	if resC.AvgIterTime() <= resH.AvgIterTime() {
		t.Fatalf("cyclic (%v) should be slower than heter-aware (%v) on a heterogeneous cluster",
			resC.AvgIterTime(), resH.AvgIterTime())
	}
}

func TestUsageOrdering(t *testing.T) {
	usage := func(kind core.Kind) float64 {
		cfg := frozen(kind, paperSpeeds, 7, 1, 30, 9)
		cfg.FluctuationStd = 0.05
		return run(t, cfg).Usage
	}
	uh, uc, un := usage(core.HeterAware), usage(core.Cyclic), usage(core.Naive)
	if !(uh > uc && uc > un) {
		t.Fatalf("usage ordering heter(%v) > cyclic(%v) > naive(%v) violated", uh, uc, un)
	}
	if uh < 0.8 {
		t.Fatalf("heter-aware usage %v unexpectedly low", uh)
	}
}

func TestCommOverheadLowersUsage(t *testing.T) {
	noComm := run(t, frozen(core.HeterAware, paperSpeeds, 7, 1, 5, 1))
	cfg := frozen(core.HeterAware, paperSpeeds, 7, 1, 5, 1)
	cfg.CommOverhead = 1
	withComm := run(t, cfg)
	if withComm.Usage >= noComm.Usage {
		t.Fatalf("comm overhead should reduce usage: %v vs %v", withComm.Usage, noComm.Usage)
	}
	if withComm.AvgIterTime() <= noComm.AvgIterTime() {
		t.Fatal("comm overhead should lengthen iterations")
	}
}

func TestGroupBasedDecodesFromSingleGroup(t *testing.T) {
	// Delay everyone except group {W3,W4} (indices 2,3, member IDs 3,4): the
	// group alone recovers the gradient, so iteration time stays small.
	cfg := frozen(core.GroupBased, paperSpeeds, 7, 1, 3, 2)
	cfg.Injector = straggler.Pinned{Workers: []int{0, 1, 4}, Delay: 50}
	if res := run(t, cfg); res.Failed != 0 || res.Summary.Max > 10 {
		t.Fatalf("group fast path failed: %+v", res.Summary)
	}
}

func TestFluctuationChangesTimes(t *testing.T) {
	cfg := frozen(core.HeterAware, paperSpeeds, 7, 1, 50, 10)
	cfg.FluctuationStd = 0.2
	if res := run(t, cfg); res.Summary.Std == 0 {
		t.Fatal("fluctuation should produce varying iteration times")
	}
}

// training couples a simulation with a softmax model on n mixture samples.
func training(t *testing.T, cfg ElasticSimConfig, n, dim int, seed int64) ElasticSimConfig {
	t.Helper()
	data, err := ml.GaussianMixture(n, dim, 3, 3, rng(seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Model, cfg.Data, cfg.Optimizer = &ml.Softmax{InputDim: dim, NumClasses: 3}, data, &ml.SGD{LR: 0.5}
	return cfg
}

func TestTrainConvergesAndMatchesUncodedGradient(t *testing.T) {
	cfg := training(t, frozen(core.HeterAware, paperSpeeds, 7, 1, 60, 11), 210, 4, 12)
	cfg.Injector = straggler.Fixed{Count: 1, Delay: 10}
	cfg.RecordEvery = 1
	res := run(t, cfg)
	pts := res.Loss.Points
	if len(pts) != 61 || pts[0].X != 0 {
		t.Fatalf("loss curve has %d points from x=%v, want 61 from 0", len(pts), pts[0].X)
	}
	final, err := ml.MeanLoss(cfg.Model, res.Params, cfg.Data)
	if err != nil {
		t.Fatal(err)
	}
	if final != pts[60].Y || final >= pts[0].Y*0.7 {
		t.Fatalf("training did not converge: %v -> %v (last point %v)", pts[0].Y, final, pts[60].Y)
	}
	// The curve's x-axis is the simulated clock.
	clock := 0.0
	for i := 1; i < len(pts); i++ {
		clock += res.Times[i-1]
		if pts[i].X <= pts[i-1].X || pts[i].X != clock {
			t.Fatalf("point %d at %v, want increasing and at the clock %v", i, pts[i].X, clock)
		}
	}
}

func TestTrainDecodedGradientExactness(t *testing.T) {
	// With one crashed worker, the decoded gradient must still equal the
	// full-data gradient (the whole point of gradient coding).
	c := []float64{1, 2, 3, 4, 4}
	st, err := core.NewHeterAware(c, 7, 1, rng(14))
	if err != nil {
		t.Fatal(err)
	}
	data, err := ml.GaussianMixture(140, 3, 2, 3, rng(15))
	if err != nil {
		t.Fatal(err)
	}
	model := &ml.Softmax{InputDim: 3, NumClasses: 2}
	params := model.InitParams(nil)
	parts, err := data.Split(7)
	if err != nil {
		t.Fatal(err)
	}
	coeffs, err := st.Decode(core.AliveFromStragglers(5, []int{4}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeGradient(st, coeffs, model, params, parts, grad.CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.Gradient(params, data)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got.MaxAbsDiff(want); diff > 1e-8 {
		t.Fatalf("decoded gradient differs from truth by %v", diff)
	}
}

func TestTrainFailsWhenUndecodable(t *testing.T) {
	cfg := training(t, frozen(core.Naive, []float64{1, 1, 1, 1}, 4, 1, 5, 17), 40, 3, 16)
	cfg.Injector = straggler.Fixed{Count: 1, Delay: math.Inf(1)}
	if _, err := RunElastic(cfg); !errors.Is(err, ErrBadChurn) {
		t.Fatalf("naive training under crash: err = %v, want an undecodable iteration", err)
	}
}

// TestDeadPlanMemberNeverArrives: a fixed-shape plan stands below K alive
// members, and its dead member is an erasure — it never arrives and reports
// no telemetry — so naive fails every iteration after the kill, and naive
// training stops with an error.
func TestDeadPlanMemberNeverArrives(t *testing.T) {
	cfg := ElasticSimConfig{
		K: 4, S: 0, Scheme: core.Naive,
		InitialRates: []float64{100, 1, 1, 1},
		Events:       []ChurnEvent{{Iter: 3, Kind: Kill, Member: 1}},
		Iterations:   6,
		Seed:         1,
	}
	res := run(t, cfg)
	inf := math.Inf(1)
	want := []float64{1, 1, 1, inf, inf, inf}
	for i, w := range want {
		if res.Times[i] != w {
			t.Fatalf("times %v, want %v", res.Times, want)
		}
	}
	if res.Failed != 3 || res.Summary.Count != 3 || len(res.Replans) != 1 {
		t.Fatalf("failed %d, summary over %d, replans %v: want 3, 3 and the initial plan only", res.Failed, res.Summary.Count, res.Replans)
	}
	if _, err := RunElastic(training(t, cfg, 40, 3, 18)); !errors.Is(err, ErrBadChurn) {
		t.Fatalf("training past a dead naive member: err = %v, want ErrBadChurn", err)
	}
}

func TestRunSSPConvergesAndBlocks(t *testing.T) {
	ths := []float64{1, 1, 8, 8} // strong heterogeneity → staleness stalls
	data, err := ml.GaussianMixture(160, 3, 2, 3, rng(18))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSSP(SSPConfig{
		Throughputs:         ths,
		Staleness:           2,
		Model:               &ml.Softmax{InputDim: 3, NumClasses: 2},
		Data:                data,
		Optimizer:           &ml.SGD{LR: 0.3},
		IterationsPerWorker: 30,
		Name:                "ssp",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockedEvents == 0 {
		t.Fatal("heterogeneous SSP should hit the staleness gate")
	}
	first := res.Curve.Points[0].Y
	if res.FinalLoss >= first {
		t.Fatalf("SSP did not reduce loss: %v -> %v", first, res.FinalLoss)
	}
	if res.TotalTime <= 0 {
		t.Fatal("total time must be positive")
	}
}

func TestRunSSPValidation(t *testing.T) {
	if _, err := RunSSP(SSPConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
	data, _ := ml.GaussianMixture(20, 2, 2, 2, rng(19))
	cfg := SSPConfig{
		Throughputs:         []float64{1, -1},
		Model:               &ml.Softmax{InputDim: 2, NumClasses: 2},
		Data:                data,
		Optimizer:           &ml.SGD{LR: 0.1},
		IterationsPerWorker: 1,
	}
	if _, err := RunSSP(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

// Theorem 5 worst case: over every straggler pattern of size s (simulated
// as pinned crashes), heter-aware's iteration time never exceeds the
// optimum (s+1)k/Σc — in dataset-rate units, (s+1)/Σc.
func TestTheorem5WorstCase(t *testing.T) {
	optimal := 2.0 / 14
	for dead := range paperSpeeds {
		cfg := frozen(core.HeterAware, paperSpeeds, 7, 1, 2, 40)
		cfg.Injector = straggler.Pinned{Workers: []int{dead}, Delay: math.Inf(1)}
		res := run(t, cfg)
		if res.Failed != 0 {
			t.Fatalf("pattern {%d} failed", dead)
		}
		if res.AvgIterTime() > optimal+1e-9 {
			t.Fatalf("pattern {%d}: time %v exceeds the Theorem 5 optimum %v",
				dead, res.AvgIterTime(), optimal)
		}
	}
}

// A worker that disconnects entirely mid-run must not break a coded master:
// the injector models this as a permanent crash from some iteration on, with
// no churn event to replan around it.
func TestPermanentCrashMidRun(t *testing.T) {
	cfg := frozen(core.GroupBased, paperSpeeds, 7, 1, 12, 41)
	cfg.Injector = crashAfter{worker: 3, fromIter: 5}
	if res := run(t, cfg); res.Failed != 0 {
		t.Fatalf("%d failures after permanent crash", res.Failed)
	}
}

// crashAfter permanently kills one worker from a given iteration onward.
type crashAfter struct {
	worker, fromIter int
}

func (c crashAfter) Delays(iter, m int, _ *rand.Rand) []float64 {
	out := make([]float64, m)
	if iter >= c.fromIter && c.worker < m {
		out[c.worker] = math.Inf(1)
	}
	return out
}
