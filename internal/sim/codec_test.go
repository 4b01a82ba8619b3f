package sim

import (
	"errors"
	"testing"

	"github.com/hetgc/hetgc/internal/ml"
)

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
