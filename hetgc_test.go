package hetgc

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/estimate"
	"github.com/hetgc/hetgc/internal/experiments"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/planner"
	"github.com/hetgc/hetgc/internal/straggler"
)

// TestPublicAPIQuickstart walks the documented core loop end to end through
// the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	rng := NewRand(1)
	st, err := NewHeterAware([]float64{1, 2, 3, 4, 4}, 7, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRobustness(st, 0, nil); err != nil {
		t.Fatal(err)
	}

	// Fake partial gradients: g_j = [j+1] so the exact sum is known.
	dim := 1
	partials := make([]Gradient, 7)
	var wantSum float64
	for j := range partials {
		partials[j] = Gradient{float64(j + 1)}
		wantSum += float64(j + 1)
	}
	// Each worker encodes with its coding row.
	coded := make([]Gradient, st.M())
	alloc := st.Allocation()
	for w := 0; w < st.M(); w++ {
		row := st.Row(w)
		var mine []Gradient
		var coeffs []float64
		for _, p := range alloc.Parts[w] {
			mine = append(mine, partials[p])
			coeffs = append(coeffs, row[p])
		}
		enc, err := EncodeGradient(coeffs, mine)
		if err != nil {
			t.Fatal(err)
		}
		coded[w] = enc
	}
	// Worker 3 is a straggler: decode from the rest.
	alive := AliveFromStragglers(st.M(), []int{3})
	dcoeffs, err := st.Decode(alive)
	if err != nil {
		t.Fatal(err)
	}
	coded[3] = nil
	got, err := CombineGradients(dcoeffs, coded, dim)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-wantSum) > 1e-8 {
		t.Fatalf("decoded sum %v, want %v", got[0], wantSum)
	}
}

// frozenSim is a timing simulation of one scheme at fixed true speeds
// (datasets/second): no churn, and the plan frozen at its initial build from
// the true speeds, the way the paper's figures run.
func frozenSim(kind Kind, speeds []float64, k, s int, inj straggler.Injector, iters int, seed int64) ElasticSimConfig {
	rates := make([]float64, len(speeds))
	for i, v := range speeds {
		rates[i] = v * float64(k)
	}
	return ElasticSimConfig{
		K: k, S: s, Scheme: kind,
		InitialRates: rates, Estimates: rates,
		Injector:       inj,
		Iterations:     iters,
		DriftThreshold: math.Inf(1),
		Seed:           seed,
	}
}

func TestPublicAPISimulation(t *testing.T) {
	cl := ClusterA()
	res, err := SimulateElastic(frozenSim(HeterAware, cl.Throughputs(), experiments.ChooseK(cl, 1), 1,
		straggler.Fixed{Count: 1, Delay: 5}, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failures: %d", res.Failed)
	}
	if res.AvgIterTime() <= 0 {
		t.Fatal("no time recorded")
	}
}

func TestPublicAPITableRunners(t *testing.T) {
	if out := Table2().String(); len(out) == 0 {
		t.Fatal("empty Table II")
	}
	rows, err := RunFig2Sweep(DelaySweepConfig{
		Cluster:    ClusterA(),
		S:          1,
		Delays:     []float64{0, math.Inf(1)},
		Iterations: 5,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SpeedupVsCyclic(rows[len(rows)-1])
	if err != nil {
		t.Fatal(err)
	}
	if sp <= 1 {
		t.Fatalf("fault speedup = %v", sp)
	}
}

// TestPublicAPIPlannerAndDecodingMatrix builds a code through the planner
// and reads a row of its decoding matrix A twice: the first decode of a
// straggler pattern solves online, the second is answered from the
// decode-plan cache (§III.B's partially stored A) with the same row.
func TestPublicAPIPlannerAndDecodingMatrix(t *testing.T) {
	rng := NewRand(9)
	st, err := BuildStrategy(HeterAware, []float64{1, 2, 3, 4, 4}, 7, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	alive := AliveFromStragglers(st.M(), []int{0})
	live, err := st.Decode(alive)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := st.Decode(alive)
	if err != nil {
		t.Fatal(err)
	}
	if stats := st.DecodeCacheStats(); stats.Misses != 1 || stats.Hits != 1 {
		t.Fatalf("cache stats = %+v, want one miss then one hit", stats)
	}
	if stored[0] != 0 {
		t.Fatalf("straggler 0 coefficient = %v, want 0", stored[0])
	}
	for i := range stored {
		if stored[i] != live[i] {
			t.Fatalf("stored row diverges from live decode at %d: %v vs %v", i, stored[i], live[i])
		}
	}
}

// Fractional repetition performs comparably to cyclic on a homogeneous
// cluster (the paper's §VI justification for not evaluating it separately).
func TestFractionalRepetitionComparableToCyclic(t *testing.T) {
	m, s := 8, 1
	ths := make([]float64, m)
	for i := range ths {
		ths[i] = 0.08 // homogeneous
	}
	run := func(kind Kind) float64 {
		res, err := SimulateElastic(frozenSim(kind, ths, m, s, straggler.Fixed{Count: 1, Delay: 10}, 30, 12))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("%v failed %d iterations", kind, res.Failed)
		}
		return res.AvgIterTime()
	}
	tFR, tCY := run(FractionalRepetition), run(Cyclic)
	if tFR > tCY*1.3 || tCY > tFR*1.3 {
		t.Fatalf("frac-rep (%v) and cyclic (%v) should be comparable on homogeneous clusters", tFR, tCY)
	}
}

// trainingSim is a facade-only coded-training simulation: group-based on the
// paper's Example 1 speeds, recording the loss every iteration.
func trainingSim(t *testing.T) ElasticSimConfig {
	t.Helper()
	data, err := GaussianMixture(70, 4, 2, 3, NewRand(20))
	if err != nil {
		t.Fatal(err)
	}
	cfg := frozenSim(GroupBased, []float64{1, 2, 3, 4, 4}, 7, 1, nil, 10, 20)
	cfg.Model, cfg.Data, cfg.Optimizer = &Softmax{InputDim: 4, NumClasses: 2}, data, &SGD{LR: 0.5}
	cfg.RecordEvery = 1
	return cfg
}

func TestPublicAPITrainingSimulations(t *testing.T) {
	cfg := trainingSim(t)
	res, err := SimulateElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pts := res.Loss.Points; len(pts) != 11 || pts[10].Y >= pts[0].Y {
		t.Fatalf("loss did not drop over 10 recorded iterations: %v", pts)
	}
}

func TestPublicAPIMiscWrappers(t *testing.T) {
	rng := NewRand(21)
	data, err := GaussianMixture(20, 3, 2, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	m := &Softmax{InputDim: 3, NumClasses: 2}
	if _, err := MeanLoss(m, m.InitParams(nil), data); err != nil {
		t.Fatal(err)
	}
	sum, err := grad.Sum([]Gradient{{1, 2}, {3, 4}})
	if err != nil || sum[1] != 6 {
		t.Fatalf("sum = %v err = %v", sum, err)
	}
	noisy := estimate.Misestimate([]float64{1, 2}, 0.2, rng)
	if len(noisy) != 2 {
		t.Fatalf("noisy = %v", noisy)
	}
	meter := estimate.NewMeter(0.5, 1)
	if err := meter.Observe(2, 1); err != nil {
		t.Fatal(err)
	}
	if v := meter.Rate(1); v != 2 {
		t.Fatalf("meter = %v", v)
	}
	if _, err := core.NewFractionalRepetition(6, 1); err != nil {
		t.Fatal(err)
	}
	if st, err := core.NewNaive(3); err != nil || st.Kind() != Naive {
		t.Fatalf("naive: %v %v", st, err)
	}
}

// TestElasticFacade exercises the public churn simulation, then the pieces
// of the control plane behind it: the controller, the throughput meter and
// the imbalance predictor.
func TestElasticFacade(t *testing.T) {
	cfg := ElasticSimConfig{
		K: 6, S: 1,
		InitialRates: []float64{400, 400, 400},
		Events: []ChurnEvent{
			{Iter: 5, Kind: ChurnSpeedStep, Member: 1, Factor: 0.1},
			{Iter: 8, Kind: ChurnJoin, Rate: 400},
		},
		Iterations:      16,
		MinObservations: 2,
		CooldownIters:   2,
		Seed:            3,
	}
	a, err := SimulateElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Times) != 16 || a.Epochs[15][0] < 1 || len(a.Replans) < 2 {
		t.Fatalf("sim result = %+v", a)
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] || a.Epochs[i][0] != b.Epochs[i][0] {
			t.Fatal("churn simulation not deterministic via facade")
		}
	}

	ctrl, err := elastic.NewController(elastic.Config{K: 6, S: 1}, NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	ctrl.AddMember(1, 1)
	ctrl.AddMember(2, 1)
	plan, err := ctrl.Replan(0, "initial")
	if err != nil || plan.Epoch != 0 || plan.Strategy.M() != 2 {
		t.Fatalf("plan = %+v err = %v", plan, err)
	}

	meter := estimate.NewMeter(0.5, 2)
	if meter.Rate(1) != 2 {
		t.Fatalf("cold meter rate = %v, want prior 2", meter.Rate(1))
	}
	if err := meter.Observe(4, 1); err != nil {
		t.Fatal(err)
	}
	if meter.Rate(1) != 4 {
		t.Fatalf("warm meter rate = %v, want 4", meter.Rate(1))
	}
	st, err := NewHeterAware([]float64{1, 2, 3}, 6, 1, NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	if im := planner.PredictedImbalance(st, []float64{1, 2, 3}); im < 1-1e-9 || im > 2 {
		t.Fatalf("imbalance = %v", im)
	}
}

// TestHAFacade drives the high-availability surface through the facade
// only: acquire, read back, expire, standby promotion, fencing error.
func TestHAFacade(t *testing.T) {
	dir := t.TempDir()
	lease, err := AcquireLease(dir, "root-a", "addr-a", 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Gen() != 1 {
		t.Fatalf("generation = %d, want 1", lease.Gen())
	}
	tok, err := ReadLeaseToken(dir)
	if err != nil || tok.Holder != "root-a" {
		t.Fatalf("token = %+v, %v", tok, err)
	}
	if _, err := AcquireLease(dir, "root-b", "addr-b", time.Hour); err == nil || !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("steal of a live lease = %v, want ErrLeaseHeld", err)
	}
	// Never renewed: the standby sees the lapse and promotes.
	prom, err := NewStandby(StandbyConfig{DurabilityConfig: DurabilityConfig{CheckpointDir: dir}, Poll: 5 * time.Millisecond}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if prom.Deposed == nil || prom.Deposed.Gen != 1 {
		t.Fatalf("promotion = %+v, want deposed generation 1", prom)
	}
	b, err := AcquireLease(dir, "root-b", "addr-b", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if b.Gen() != 2 {
		t.Fatalf("successor generation = %d, want 2", b.Gen())
	}
	if err := lease.Renew(); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed renew = %v, want ErrFenced", err)
	}
}
