package sim

import (
	"errors"
	"reflect"
	"testing"

	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/straggler"
)

// churnScenario mirrors the live end-to-end churn test: two of four workers
// slow 10x at iteration 8, a fifth joins at 12, one slow worker is killed at
// 20 and rejoins recovered at 26.
func churnScenario() ElasticSimConfig {
	return ElasticSimConfig{
		K: 8, S: 1,
		InitialRates: []float64{500, 500, 500, 500},
		Events: []ChurnEvent{
			{Iter: 8, Kind: SpeedStep, Member: 1, Factor: 0.1},
			{Iter: 8, Kind: SpeedStep, Member: 3, Factor: 0.1},
			{Iter: 12, Kind: Join, Rate: 500},
			{Iter: 20, Kind: Kill, Member: 3},
			{Iter: 26, Kind: Rejoin, Member: 3, Rate: 500},
		},
		Iterations:      36,
		Alpha:           0.5,
		DriftThreshold:  0.5,
		MinObservations: 2,
		CooldownIters:   3,
		Seed:            7,
	}
}

func TestRunElasticChurnScenario(t *testing.T) {
	res, err := RunElastic(churnScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 36 || len(res.Epochs) != 36 || len(res.MemberCounts) != 36 {
		t.Fatalf("lengths: times=%d epochs=%d members=%d", len(res.Times), len(res.Epochs), len(res.MemberCounts))
	}
	// The control plane must have migrated for drift (the slowdowns) and
	// churn (join, kill, rejoin).
	reasons := map[string]int{}
	for _, ev := range res.Replans {
		reasons[ev.Reason]++
	}
	if reasons["initial"] != 1 || reasons["churn"] < 3 || reasons["drift"] < 1 {
		t.Fatalf("replan reasons = %v, want 1 initial, ≥3 churn, ≥1 drift", reasons)
	}
	for i := 1; i < len(res.Epochs); i++ {
		if res.Epochs[i][0] < res.Epochs[i-1][0] {
			t.Fatalf("epochs regressed: %v", res.Epochs)
		}
	}
	// Membership trace: 4 → 5 (join) → 4 (kill) → 5 (rejoin).
	if res.MemberCounts[0] != 4 || res.MemberCounts[13] != 5 || res.MemberCounts[21] != 4 || res.MemberCounts[30] != 5 {
		t.Fatalf("member counts = %v", res.MemberCounts)
	}
	// Post-migration speed: the drift replan must beat the drifted frozen
	// plan. Compare against a lobotomised control plane (no drift replans)
	// over the same slowdown (no membership events, which a frozen plan
	// cannot absorb anyway).
	frozen := churnScenario()
	frozen.Events = []ChurnEvent{
		{Iter: 8, Kind: SpeedStep, Member: 1, Factor: 0.1},
		{Iter: 8, Kind: SpeedStep, Member: 3, Factor: 0.1},
	}
	frozen.DriftThreshold = 1e9
	frozen.CooldownIters = 1 << 30
	base, err := RunElastic(frozen)
	if err != nil {
		t.Fatal(err)
	}
	tail := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs[len(xs)-10:] {
			sum += x
		}
		return sum / 10
	}
	if at, bt := tail(res.Times), tail(base.Times); at >= bt {
		t.Fatalf("adaptive tail %.5fs not better than frozen tail %.5fs", at, bt)
	}

	// No churn at all: an 18x speed spread planned from a uniform prior
	// (no Estimates), one random 10 s straggler per iteration. The meters
	// must see the imbalance, re-code for drift, and the re-coded
	// iterations must run faster on average than the ones before.
	t.Run("uniform-prior-drift", func(t *testing.T) {
		res, err := RunElastic(ElasticSimConfig{
			K: 21, S: 1,
			InitialRates: []float64{0.5, 1, 2, 4, 4.5, 9},
			Injector:     straggler.Fixed{Count: 1, Delay: 10},
			Iterations:   30,
			Seed:         11,
		})
		if err != nil {
			t.Fatal(err)
		}
		at := -1
		for _, ev := range res.Replans {
			if ev.Reason == "drift" {
				at = ev.Iter
				break
			}
		}
		if at <= 0 || at >= len(res.Times) {
			t.Fatalf("no drift replan inside the run: %+v", res.Replans)
		}
		mean := func(xs []float64) float64 {
			sum := 0.0
			for _, x := range xs {
				sum += x
			}
			return sum / float64(len(xs))
		}
		if before, after := mean(res.Times[:at]), mean(res.Times[at:]); after >= before {
			t.Fatalf("mean iteration %.3fs after the drift replan at %d, want below %.3fs before", after, at, before)
		}
	})
}

func TestRunElasticDeterministic(t *testing.T) {
	a, err := RunElastic(churnScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunElastic(churnScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("elastic simulation is not bit-identical across runs:\n%+v\nvs\n%+v", a, b)
	}
	// A different seed changes strategy construction but must still run.
	other := churnScenario()
	other.Seed = 8
	if _, err := RunElastic(other); err != nil {
		t.Fatal(err)
	}
}

func TestRunElasticGroupBasedScheme(t *testing.T) {
	cfg := churnScenario()
	cfg.Scheme = core.GroupBased
	res, err := RunElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != cfg.Iterations {
		t.Fatalf("times = %d", len(res.Times))
	}
}

func TestRunElasticValidation(t *testing.T) {
	bad := []func(c *ElasticSimConfig){
		func(c *ElasticSimConfig) { c.InitialRates = nil },
		func(c *ElasticSimConfig) { c.Iterations = 0 },
		func(c *ElasticSimConfig) { c.CommOverhead = -1 },
		func(c *ElasticSimConfig) { c.InitialRates = []float64{1, -1} },
		func(c *ElasticSimConfig) { c.Events = []ChurnEvent{{Iter: 0, Kind: Kill, Member: 99}} },
		func(c *ElasticSimConfig) { c.Events = []ChurnEvent{{Iter: 0, Kind: SpeedStep, Member: 1, Factor: -2}} },
		func(c *ElasticSimConfig) { c.Events = []ChurnEvent{{Iter: 0, Kind: Join, Rate: 0}} },
		func(c *ElasticSimConfig) { c.Events = []ChurnEvent{{Iter: 0, Kind: Rejoin, Member: 1}} },
		func(c *ElasticSimConfig) { c.Events = []ChurnEvent{{Iter: 0, Kind: ChurnKind(99)}} },
	}
	for i, mutate := range bad {
		cfg := churnScenario()
		mutate(&cfg)
		if _, err := RunElastic(cfg); !errors.Is(err, ErrBadChurn) {
			t.Fatalf("case %d: err = %v, want ErrBadChurn", i, err)
		}
	}
	// Killing below the planning quorum surfaces the controller error.
	cfg := churnScenario()
	cfg.Events = []ChurnEvent{
		{Iter: 2, Kind: Kill, Member: 1},
		{Iter: 2, Kind: Kill, Member: 2},
		{Iter: 2, Kind: Kill, Member: 3},
	}
	if _, err := RunElastic(cfg); err == nil {
		t.Fatal("expected failure when membership collapses below quorum")
	}
}

func TestChurnKindString(t *testing.T) {
	cases := map[ChurnKind]string{
		SpeedStep:     "speed-step",
		Kill:          "kill",
		Join:          "join",
		Rejoin:        "rejoin",
		ChurnKind(42): "ChurnKind(42)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
