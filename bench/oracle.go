package main

import (
	"fmt"
	"math"

	"github.com/hetgc/hetgc/internal/ml"
)

// reference is the correctness oracle: plain single-worker full-batch SGD on
// the same data for the same number of steps, built from internal/ml alone.
func reference(in *inputs, lr float64, steps int) ([]float64, error) {
	params := make([]float64, in.model.Dim())
	opt := &ml.SGD{LR: lr, Momentum: momentum}
	scale := 1 / float64(in.full.N())
	for i := 0; i < steps; i++ {
		g, err := in.model.Gradient(params, in.full)
		if err != nil {
			return nil, err
		}
		g.Scale(scale)
		if err := opt.Step(params, g); err != nil {
			return nil, err
		}
	}
	return params, nil
}

// checkParams holds the trained parameters against the oracle after the same
// number of steps and returns one message per failed check. Lossless uplinks
// must land within 1e-6 of it in max-norm relative to the largest parameter:
// decode is exact up to rounding whatever plans the controller chose. A
// quantized uplink changes the arithmetic, so there the loss must stay
// within 2 % of the oracle's and below the initial loss.
func checkParams(w *workload, in *inputs, params []float64, steps int) []string {
	if len(params) != in.model.Dim() {
		return []string{fmt.Sprintf("final parameters have length %d, want %d", len(params), in.model.Dim())}
	}
	ref, err := reference(in, w.lr, steps)
	if err != nil {
		return []string{"oracle: " + err.Error()}
	}
	if w.codec == "" {
		var diff, norm float64
		for i, p := range params {
			diff = math.Max(diff, math.Abs(p-ref[i]))
			norm = math.Max(norm, math.Abs(ref[i]))
		}
		if !(diff <= 1e-6*norm) {
			return []string{fmt.Sprintf("parameters after %d steps differ from the oracle by %.3g (max-norm), limit %.3g", steps, diff, 1e-6*norm)}
		}
		return nil
	}
	got, err := in.model.Loss(params, in.full)
	if err != nil {
		return []string{"loss: " + err.Error()}
	}
	want, _ := in.model.Loss(ref, in.full)
	initial, _ := in.model.Loss(make([]float64, len(params)), in.full)
	var bad []string
	if !(math.Abs(got-want) <= 0.02*want) {
		bad = append(bad, fmt.Sprintf("loss after %d steps is %.6g, oracle %.6g: more than 2 %% apart", steps, got, want))
	}
	if !(got < initial) {
		bad = append(bad, fmt.Sprintf("loss after %d steps is %.6g, not below the initial %.6g", steps, got, initial))
	}
	return bad
}
