package sim

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/hetgc/hetgc/internal/ml"
)

// crashBase is a churn-heavy schedule: speed drift, a kill, a join and a
// rejoin all land mid-run.
func crashBase() ElasticSimConfig {
	return ElasticSimConfig{
		K: 8, S: 1,
		InitialRates: []float64{500, 400, 300, 500},
		Events: []ChurnEvent{
			{Iter: 6, Kind: SpeedStep, Member: 2, Factor: 0.1},
			{Iter: 10, Kind: Join, Rate: 450},
			{Iter: 14, Kind: Kill, Member: 3},
			{Iter: 22, Kind: Rejoin, Member: 3, Rate: 350},
			{Iter: 26, Kind: SpeedStep, Member: 1, Factor: 2.0},
		},
		Iterations:      36,
		Alpha:           0.5,
		DriftThreshold:  0.4,
		MinObservations: 2,
		CooldownIters:   3,
		Seed:            11,
	}
}

// trainingBase couples crashBase's schedule with a real model and a momentum
// optimizer: kills, joins and replans land while real optimizer steps are
// being taken.
func trainingBase(t *testing.T) ElasticSimConfig {
	t.Helper()
	cfg := crashBase()
	data, err := ml.GaussianMixture(cfg.K*12, 4, 3, 3, rand.New(rand.NewSource(100)))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Model = &ml.Softmax{InputDim: 4, NumClasses: 3}
	cfg.Data = data
	cfg.Optimizer = &ml.SGD{LR: 0.5, Momentum: 0.9}
	return cfg
}

// TestChurnSimLossyCodecsTrain proves int8's quantization error is benign
// for optimisation: an int8 run over the same churn schedule must still
// converge (loss drops), while actually perturbing the arithmetic
// (bit-identity with raw would mean the round trip never ran).
func TestChurnSimLossyCodecsTrain(t *testing.T) {
	raw, err := RunElastic(trainingBase(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []string{"int8"} {
		cfg := trainingBase(t)
		cfg.Wire.Codec = codec
		res, err := RunElastic(cfg)
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		loss0, err := ml.MeanLoss(cfg.Model, cfg.Model.InitParams(nil), cfg.Data)
		if err != nil {
			t.Fatal(err)
		}
		lossT, err := ml.MeanLoss(cfg.Model, res.Params, cfg.Data)
		if err != nil {
			t.Fatal(err)
		}
		if lossT >= loss0 {
			t.Fatalf("%s: loss did not drop (%v -> %v)", codec, loss0, lossT)
		}
		perturbed := false
		for i := range raw.Params {
			if raw.Params[i] != res.Params[i] {
				perturbed = true
				break
			}
		}
		if !perturbed {
			t.Fatalf("%s: params bit-identical to raw — quantization round trip did not run", codec)
		}
	}
}

// TestChurnSimCodecUnknownRejected pins the config error for a codec name the
// build does not know.
func TestChurnSimCodecUnknownRejected(t *testing.T) {
	cfg := trainingBase(t)
	cfg.Wire.Codec = "gzip"
	if _, err := RunElastic(cfg); !errors.Is(err, ErrBadChurn) {
		t.Fatalf("err = %v, want ErrBadChurn", err)
	}
}
