package ml

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/hetgc/hetgc/internal/grad"
)

// Model is a differentiable model over a flat parameter vector. Loss and
// Gradient return *sums* over the dataset's samples, making partial results
// over disjoint partitions exactly additive.
type Model interface {
	// Dim returns the number of parameters.
	Dim() int
	// InitParams returns a fresh parameter vector (small random values for
	// networks, zeros for convex models).
	InitParams(rng *rand.Rand) []float64
	// Loss returns the summed loss over d at params.
	Loss(params []float64, d *Dataset) (float64, error)
	// Gradient returns the summed gradient over d at params. The result is
	// the caller's: fresh or pooled, never memory the model keeps; return it
	// with grad.PutBuffer or drop it.
	Gradient(params []float64, d *Dataset) (grad.Gradient, error)
}

// Coder is a Model that forms a worker's coded gradient in one pass. Its
// CodedGradient writes Σⱼ coeffs[j]·∇(parts[j]) into dst, overwriting it, and
// must match, bit for bit, what grad.EncodeInto makes of the Gradient
// partials; with no partitions it clears dst. It returns the errors the
// per-partition path would: ErrBadData for a partition or parameter vector
// the model refuses, grad.ErrDimension for a mis-sized dst or coefficient
// list.
type Coder interface {
	CodedGradient(dst grad.Gradient, params []float64, parts []*Dataset, coeffs []float64) error
}

// CodedGradient writes a worker's coded gradient Σⱼ coeffs[j]·∇(parts[j])
// into dst: in one pass when m is a Coder, otherwise one Gradient per
// partition, combined by grad.EncodeInto, with the partials returned to the
// pool. With no partitions dst is cleared: a zero-load row's honest upload.
func CodedGradient(m Model, dst grad.Gradient, params []float64, parts []*Dataset, coeffs []float64) error {
	if c, ok := m.(Coder); ok {
		return c.CodedGradient(dst, params, parts, coeffs)
	}
	partials := make([]grad.Gradient, 0, len(parts))
	defer func() {
		for _, g := range partials {
			grad.PutBuffer(g)
		}
	}()
	for _, d := range parts {
		g, err := m.Gradient(params, d)
		if err != nil {
			return err
		}
		partials = append(partials, g)
	}
	if len(parts) == 0 && len(coeffs) == 0 {
		clear(dst)
		return nil
	}
	return grad.EncodeInto(dst, coeffs, partials)
}

// MeanLoss evaluates Loss divided by the sample count — the value plotted in
// learning curves.
func MeanLoss(m Model, params []float64, d *Dataset) (float64, error) {
	if d.N() == 0 {
		return 0, fmt.Errorf("%w: empty dataset", ErrBadData)
	}
	l, err := m.Loss(params, d)
	if err != nil {
		return 0, err
	}
	return l / float64(d.N()), nil
}

// checkDims validates a (params, dataset) pair against a model. The feature
// dimension must be the model's: the kernels index rows by it, so a shard of
// the wrong width would otherwise be truncated silently or panic.
func checkDims(m Model, params []float64, d *Dataset, inputDim, wantClasses int) error {
	if len(params) != m.Dim() {
		return fmt.Errorf("%w: %d params, model wants %d", ErrBadData, len(params), m.Dim())
	}
	if wantClasses > 0 && d.Classes != wantClasses {
		return fmt.Errorf("%w: dataset has %d classes, model wants %d", ErrBadData, d.Classes, wantClasses)
	}
	if d.N() > 0 && d.Dim() != inputDim {
		return fmt.Errorf("%w: dataset has dim %d, model wants %d", ErrBadData, d.Dim(), inputDim)
	}
	return nil
}

// LinearRegression is least-squares regression: loss ½(w·x+b − y)² summed
// over samples. Parameters: [w (dim), b].
type LinearRegression struct {
	// InputDim is the feature dimension.
	InputDim int
}

// Dim implements Model.
func (m *LinearRegression) Dim() int { return m.InputDim + 1 }

// InitParams implements Model (zeros: the problem is convex).
func (m *LinearRegression) InitParams(*rand.Rand) []float64 { return make([]float64, m.Dim()) }

// Loss implements Model.
func (m *LinearRegression) Loss(params []float64, d *Dataset) (float64, error) {
	if err := checkDims(m, params, d, m.InputDim, 0); err != nil {
		return 0, err
	}
	var sum float64
	for i, x := range d.Features {
		r := m.predict(params, x) - d.Labels[i]
		sum += 0.5 * r * r
	}
	return sum, nil
}

// Gradient implements Model.
func (m *LinearRegression) Gradient(params []float64, d *Dataset) (grad.Gradient, error) {
	if err := checkDims(m, params, d, m.InputDim, 0); err != nil {
		return nil, err
	}
	g := make(grad.Gradient, m.Dim())
	for i, x := range d.Features {
		r := m.predict(params, x) - d.Labels[i]
		for j, xj := range x {
			g[j] += r * xj
		}
		g[m.InputDim] += r
	}
	return g, nil
}

func (m *LinearRegression) predict(params []float64, x []float64) float64 {
	s := params[m.InputDim]
	for j, xj := range x {
		s += params[j] * xj
	}
	return s
}

// LogisticRegression is binary classification (labels 0/1 with Classes == 2)
// with log loss. Parameters: [w (dim), b].
type LogisticRegression struct {
	// InputDim is the feature dimension.
	InputDim int
}

// Dim implements Model.
func (m *LogisticRegression) Dim() int { return m.InputDim + 1 }

// InitParams implements Model.
func (m *LogisticRegression) InitParams(*rand.Rand) []float64 { return make([]float64, m.Dim()) }

// Loss implements Model.
func (m *LogisticRegression) Loss(params []float64, d *Dataset) (float64, error) {
	if err := checkDims(m, params, d, m.InputDim, 2); err != nil {
		return 0, err
	}
	var sum float64
	for i, x := range d.Features {
		z := m.logit(params, x)
		y := d.Labels[i]
		// log(1+e^z) − y·z, computed stably.
		sum += logSumExp0(z) - y*z
	}
	return sum, nil
}

// Gradient implements Model.
func (m *LogisticRegression) Gradient(params []float64, d *Dataset) (grad.Gradient, error) {
	if err := checkDims(m, params, d, m.InputDim, 2); err != nil {
		return nil, err
	}
	g := make(grad.Gradient, m.Dim())
	for i, x := range d.Features {
		p := sigmoid(m.logit(params, x))
		r := p - d.Labels[i]
		for j, xj := range x {
			g[j] += r * xj
		}
		g[m.InputDim] += r
	}
	return g, nil
}

func (m *LogisticRegression) logit(params []float64, x []float64) float64 {
	s := params[m.InputDim]
	for j, xj := range x {
		s += params[j] * xj
	}
	return s
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// logSumExp0 computes log(1 + e^z) stably.
func logSumExp0(z float64) float64 {
	if z > 0 {
		return z + math.Log1p(math.Exp(-z))
	}
	return math.Log1p(math.Exp(z))
}
