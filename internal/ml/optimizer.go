package ml

import (
	"fmt"
	"math"

	"github.com/hetgc/hetgc/internal/grad"
)

// Optimizer updates a parameter vector in place from a gradient.
type Optimizer interface {
	// Step applies one update. The gradient is not modified.
	Step(params []float64, g grad.Gradient) error
}

// StatefulOptimizer is implemented by optimizers whose update rule carries
// state across steps (momentum velocity, Adam moments). Checkpointing
// masters capture the state into snapshots and restore it on resume, so a
// recovered run continues the exact same trajectory instead of restarting
// the state cold.
type StatefulOptimizer interface {
	Optimizer
	// OptimizerState returns the state vectors and the internal step
	// counter. A cold optimizer returns (nil, 0). The vectors are the
	// optimizer's own, not copies: read-only, and valid until the next Step
	// or RestoreOptimizerState rewrites them.
	OptimizerState() (vecs [][]float64, step int)
	// RestoreOptimizerState installs previously captured state. The vector
	// count and lengths must match what OptimizerState produced for this
	// optimizer type (nil/empty restores the cold state).
	RestoreOptimizerState(vecs [][]float64, step int) error
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	// LR is the learning rate (> 0).
	LR float64
	// Momentum in [0,1); 0 disables it.
	Momentum float64

	velocity []float64
}

var _ StatefulOptimizer = (*SGD)(nil)

// OptimizerState implements StatefulOptimizer: the momentum velocity (one
// vector, absent while cold or without momentum).
func (o *SGD) OptimizerState() ([][]float64, int) {
	if o.velocity == nil {
		return nil, 0
	}
	return [][]float64{o.velocity}, 0
}

// RestoreOptimizerState implements StatefulOptimizer.
func (o *SGD) RestoreOptimizerState(vecs [][]float64, step int) error {
	switch len(vecs) {
	case 0:
		o.velocity = nil
		return nil
	case 1:
		o.velocity = append([]float64(nil), vecs[0]...)
		return nil
	default:
		return fmt.Errorf("%w: SGD restore got %d state vectors, want at most 1", ErrBadData, len(vecs))
	}
}

// Step implements Optimizer.
func (o *SGD) Step(params []float64, g grad.Gradient) error {
	if err := o.validate(params, g); err != nil {
		return err
	}
	if o.Momentum == 0 {
		for i, gi := range g {
			params[i] -= o.LR * gi
		}
		return nil
	}
	if o.velocity == nil {
		o.velocity = make([]float64, len(params))
	}
	for i, gi := range g {
		o.velocity[i] = o.Momentum*o.velocity[i] + gi
		params[i] -= o.LR * o.velocity[i]
	}
	return nil
}

func (o *SGD) validate(params []float64, g grad.Gradient) error {
	if o.LR <= 0 {
		return fmt.Errorf("ml: SGD learning rate %v must be positive", o.LR)
	}
	if o.Momentum < 0 || o.Momentum >= 1 {
		return fmt.Errorf("ml: SGD momentum %v outside [0,1)", o.Momentum)
	}
	if len(params) != len(g) {
		return fmt.Errorf("%w: %d params vs %d gradient entries", ErrBadData, len(params), len(g))
	}
	if o.velocity != nil && len(o.velocity) != len(params) {
		return fmt.Errorf("%w: optimizer state dim %d vs params %d", ErrBadData, len(o.velocity), len(params))
	}
	return nil
}

// Adam is the Adam optimizer (Kingma & Ba). Zero-value Beta/Eps fields take
// the canonical defaults 0.9 / 0.999 / 1e-8.
type Adam struct {
	// LR is the learning rate (> 0).
	LR float64
	// Beta1, Beta2, Eps override the defaults when non-zero.
	Beta1, Beta2, Eps float64

	m, v []float64
	t    int
}

var _ StatefulOptimizer = (*Adam)(nil)

// OptimizerState implements StatefulOptimizer: the first/second moment
// vectors and the step counter t (bias correction depends on it, so a
// resume without it would re-warm the learning rate).
func (o *Adam) OptimizerState() ([][]float64, int) {
	if o.m == nil {
		return nil, o.t
	}
	return [][]float64{o.m, o.v}, o.t
}

// RestoreOptimizerState implements StatefulOptimizer.
func (o *Adam) RestoreOptimizerState(vecs [][]float64, step int) error {
	if step < 0 {
		return fmt.Errorf("%w: Adam restore with step %d", ErrBadData, step)
	}
	switch len(vecs) {
	case 0:
		o.m, o.v, o.t = nil, nil, step
		return nil
	case 2:
		if len(vecs[0]) != len(vecs[1]) {
			return fmt.Errorf("%w: Adam restore with mismatched moments (%d vs %d)", ErrBadData, len(vecs[0]), len(vecs[1]))
		}
		o.m = append([]float64(nil), vecs[0]...)
		o.v = append([]float64(nil), vecs[1]...)
		o.t = step
		return nil
	default:
		return fmt.Errorf("%w: Adam restore got %d state vectors, want 0 or 2", ErrBadData, len(vecs))
	}
}

// Step implements Optimizer.
func (o *Adam) Step(params []float64, g grad.Gradient) error {
	if o.LR <= 0 {
		return fmt.Errorf("ml: Adam learning rate %v must be positive", o.LR)
	}
	if len(params) != len(g) {
		return fmt.Errorf("%w: %d params vs %d gradient entries", ErrBadData, len(params), len(g))
	}
	b1, b2, eps := o.Beta1, o.Beta2, o.Eps
	if b1 == 0 {
		b1 = 0.9
	}
	if b2 == 0 {
		b2 = 0.999
	}
	if eps == 0 {
		eps = 1e-8
	}
	if o.m == nil {
		o.m = make([]float64, len(params))
		o.v = make([]float64, len(params))
	}
	if len(o.m) != len(params) {
		return fmt.Errorf("%w: optimizer state dim %d vs params %d", ErrBadData, len(o.m), len(params))
	}
	o.t++
	c1 := 1 - math.Pow(b1, float64(o.t))
	c2 := 1 - math.Pow(b2, float64(o.t))
	for i, gi := range g {
		o.m[i] = b1*o.m[i] + (1-b1)*gi
		o.v[i] = b2*o.v[i] + (1-b2)*gi*gi
		mHat := o.m[i] / c1
		vHat := o.v[i] / c2
		params[i] -= o.LR * mHat / (math.Sqrt(vHat) + eps)
	}
	return nil
}
