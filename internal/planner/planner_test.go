package planner_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/hetgc/hetgc/internal/core"
	. "github.com/hetgc/hetgc/internal/planner"
	"github.com/hetgc/hetgc/internal/sim"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestBuildStrategyAllKinds holds the builder to the constructor each scheme
// names: from the same seed it must produce the same loads and the same B
// matrix bit for bit, and leave the rng at the same draw, so that routing a
// caller through BuildStrategy never moves a pinned table.
func TestBuildStrategyAllKinds(t *testing.T) {
	est := []float64{2, 2, 4, 4, 8, 8, 12, 8} // Cluster-A's vCPUs
	const k, s = 24, 1
	m := len(est)
	for _, tc := range []struct {
		kind   core.Kind
		want   core.Kind
		direct func(*rand.Rand) (*core.Strategy, error)
	}{
		{core.Naive, core.Naive, func(*rand.Rand) (*core.Strategy, error) { return core.NewNaive(m) }},
		{core.Cyclic, core.Cyclic, func(r *rand.Rand) (*core.Strategy, error) { return core.NewCyclic(m, s, r) }},
		{core.FractionalRepetition, core.FractionalRepetition, func(*rand.Rand) (*core.Strategy, error) {
			return core.NewFractionalRepetition(m, s)
		}},
		{core.HeterAware, core.HeterAware, func(r *rand.Rand) (*core.Strategy, error) { return core.NewHeterAware(est, k, s, r) }},
		{core.GroupBased, core.GroupBased, func(r *rand.Rand) (*core.Strategy, error) { return core.NewGroupBased(est, k, s, r) }},
		{core.Kind(0), core.HeterAware, func(r *rand.Rand) (*core.Strategy, error) { return core.NewHeterAware(est, k, s, r) }},
	} {
		name := tc.want.String()
		if tc.kind == 0 {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			gotRng, wantRng := rng(7), rng(7)
			got, err := BuildStrategy(tc.kind, est, k, s, gotRng)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.direct(wantRng)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind() != tc.want || got.M() != m || got.K() != want.K() || got.S() != want.S() {
				t.Fatalf("kind %v m %d k %d s %d, want %v m %d k %d s %d",
					got.Kind(), got.M(), got.K(), got.S(), tc.want, m, want.K(), want.S())
			}
			gl, wl := got.Allocation().Loads, want.Allocation().Loads
			for i := range wl {
				if gl[i] != wl[i] {
					t.Fatalf("loads %v, want %v", gl, wl)
				}
			}
			for i := 0; i < m; i++ {
				gr, wr := got.Row(i), want.Row(i)
				for j := range wr {
					if math.Float64bits(gr[j]) != math.Float64bits(wr[j]) {
						t.Fatalf("B[%d][%d] = %v, want %v", i, j, gr[j], wr[j])
					}
				}
			}
			if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
				t.Fatal("the builder drew a different number of values from the rng")
			}
		})
	}
	if _, err := BuildStrategy(core.Kind(99), est, k, s, rng(1)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown kind err = %v", err)
	}
}

func TestInitialStrategyUsesGuesses(t *testing.T) {
	st, err := BuildStrategy(core.HeterAware, []float64{1, 2, 3, 4, 4}, 7, 1, rng(2))
	if err != nil {
		t.Fatal(err)
	}
	loads := st.Allocation().Loads
	want := []int{1, 2, 3, 4, 4}
	for i := range want {
		if loads[i] != want[i] {
			t.Fatalf("loads = %v, want %v", loads, want)
		}
	}
}

// TestBuildStrategyOnline covers the schemes the elastic controller rebuilds
// with: the proportional ones allocate the requested k over the estimates,
// while a fixed-shape scheme ignores k, which is why the controller refuses it.
func TestBuildStrategyOnline(t *testing.T) {
	st, err := BuildStrategy(core.HeterAware, []float64{1, 2, 3}, 6, 1, rng(22))
	if err != nil || st.Kind() != core.HeterAware || st.M() != 3 || st.K() != 6 {
		t.Fatalf("st = %+v err = %v", st, err)
	}
	st, err = BuildStrategy(0, []float64{1, 2, 3}, 6, 1, rng(23))
	if err != nil || st.Kind() != core.HeterAware {
		t.Fatalf("default scheme: %v err %v", st.Kind(), err)
	}
	st, err = BuildStrategy(core.GroupBased, []float64{1, 2, 3, 4}, 6, 1, rng(24))
	if err != nil || st.Kind() != core.GroupBased || st.K() != 6 {
		t.Fatalf("group-based: err %v", err)
	}
	st, err = BuildStrategy(core.Naive, []float64{1, 1}, 6, 0, rng(25))
	if err != nil || st.Kind() != core.Naive || st.K() != 2 {
		t.Fatalf("naive: k = %d, want m = 2 (err %v)", st.K(), err)
	}
}

// TestImbalanceDetectsDrift: a code built for uniform speeds reads as
// balanced under those speeds and as imbalanced once worker 0 turns out 4x
// faster and worker 4 4x slower.
func TestImbalanceDetectsDrift(t *testing.T) {
	uniform, err := BuildStrategy(core.HeterAware, []float64{1, 1, 1, 1, 1}, 10, 1, rng(5))
	if err != nil {
		t.Fatal(err)
	}
	if im := PredictedImbalance(uniform, []float64{1, 1, 1, 1, 1}); im > 1.05 {
		t.Fatalf("fresh plan should be balanced, imbalance = %v", im)
	}
	if im := PredictedImbalance(uniform, []float64{4, 1, 1, 1, 0.25}); im < 1.5 {
		t.Fatalf("drifted plan should be imbalanced, got %v", im)
	}
}

// TestMaybeReplanRebalances: a code built on wrong (uniform) guesses reads as
// imbalanced under one epoch's true rates, and the code rebuilt from those
// rates reads as balanced — below the controller's default replan trigger,
// so no second rebuild follows — and runs faster against the truth.
func TestMaybeReplanRebalances(t *testing.T) {
	const k, s = 12, 1
	truth := []float64{0.5, 1, 2, 4, 4.5}
	uniform, err := BuildStrategy(core.HeterAware, []float64{1, 1, 1, 1, 1}, k, s, rng(6))
	if err != nil {
		t.Fatal(err)
	}
	if im := PredictedImbalance(uniform, truth); im < 1.5 {
		t.Fatalf("expected a replan trigger, imbalance = %v", im)
	}
	rebuilt, err := BuildStrategy(core.HeterAware, truth, k, s, rng(7))
	if err != nil {
		t.Fatal(err)
	}
	if im := PredictedImbalance(rebuilt, truth); im > 1.15 {
		t.Fatalf("rebuilt plan imbalance = %v, want ≤ 1.15", im)
	}
	// The simulator builds the same two codes from the same estimates and
	// seeds, and runs them against the truth.
	simulate := func(est []float64, seed int64) float64 {
		res, err := sim.RunElastic(sim.ElasticSimConfig{
			K: k, S: s, InitialRates: truth, Estimates: est,
			Iterations: 5, DriftThreshold: math.Inf(1), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgIterTime()
	}
	if before, after := simulate([]float64{1, 1, 1, 1, 1}, 6), simulate(truth, 7); after >= before {
		t.Fatalf("rebuilding from the estimates should speed iterations up: %v -> %v", before, after)
	}
}

// TestReplanGroupBased rebuilds a group-based code from measured rates that
// reverse the guessed speed order: the scheme is kept, the loads follow the
// new rates, and the rebuilt code is better balanced under them.
func TestReplanGroupBased(t *testing.T) {
	const k, s = 7, 1
	guesses := []float64{1, 2, 3, 4, 4}
	measured := []float64{4, 4, 3, 2, 1}
	st, err := BuildStrategy(core.GroupBased, guesses, k, s, rng(9))
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind() != core.GroupBased {
		t.Fatalf("kind = %v", st.Kind())
	}
	rebuilt, err := BuildStrategy(st.Kind(), measured, k, s, rng(10))
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Kind() != core.GroupBased || rebuilt.M() != st.M() || rebuilt.K() != k {
		t.Fatalf("rebuilt kind %v m %d k %d", rebuilt.Kind(), rebuilt.M(), rebuilt.K())
	}
	if l := rebuilt.Allocation().Loads; l[0] <= l[4] {
		t.Fatalf("rebuilt loads %v must favour the now-fast worker 0", l)
	}
	if before, after := PredictedImbalance(st, measured), PredictedImbalance(rebuilt, measured); after >= before {
		t.Fatalf("rebuilding should reduce imbalance: %v -> %v", before, after)
	}
}

func TestPredictedImbalance(t *testing.T) {
	truth := []float64{1, 2, 3, 4, 4}
	st, err := core.NewHeterAware(truth, 7, 1, rng(21))
	if err != nil {
		t.Fatal(err)
	}
	// Estimates matching the build throughputs: near-balanced (rounding of
	// the proportional loads leaves a small residual imbalance).
	if im := PredictedImbalance(st, truth); im < 1-1e-9 || im > 1.6 {
		t.Fatalf("matched estimates imbalance = %v", im)
	}
	// Worker 4 collapses to 1/8th speed: the predicted imbalance must blow up.
	drifted := append([]float64(nil), truth...)
	drifted[4] = 0.5
	if im := PredictedImbalance(st, drifted); im < 2 {
		t.Fatalf("drifted imbalance = %v, want >= 2", im)
	}
	// Mismatched estimate length degrades to neutral.
	if im := PredictedImbalance(st, []float64{1, 2}); im != 1 {
		t.Fatalf("mismatched length imbalance = %v, want 1", im)
	}
}
