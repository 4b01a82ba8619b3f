// Package grad provides the gradient-vector arithmetic used on both sides of
// the coding pipeline: workers form linear combinations of partial gradients
// (encoding, g̃_i = b_i·[g_1 … g_k]ᵀ) and the master recombines coded
// gradients with decoding coefficients (g = Σ a_i·g̃_i). It also holds the
// two gradient wire codecs, raw float64 and int8 (quant.go); the root picks
// one for the whole run.
package grad

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension is returned when gradient dimensions disagree.
var ErrDimension = errors.New("grad: dimension mismatch")

// Gradient is a flat gradient vector over model parameters.
type Gradient []float64

// Clone returns a deep copy.
func (g Gradient) Clone() Gradient { return append(Gradient(nil), g...) }

// Scale multiplies g by alpha in place.
func (g Gradient) Scale(alpha float64) {
	for i := range g {
		g[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm.
func (g Gradient) Norm2() float64 {
	var s float64
	for _, v := range g {
		s += v * v
	}
	return math.Sqrt(s)
}

// InfOrNaN reports whether the vector contains any NaN or infinity — the
// shared guard every wire-ingest path runs against poisoned uploads. x − x is
// zero for every finite x and NaN for NaN and ±Inf, so four running sums of it
// stay zero exactly on a clean vector: no branch per element, one check per
// 1024-element block so a poisoned frame is still rejected early.
func InfOrNaN(v []float64) bool {
	for len(v) > 0 {
		blk := v[:min(len(v), 1024)]
		v = v[len(blk):]
		var a0, a1, a2, a3 float64
		for ; len(blk) >= 4; blk = blk[4:] {
			a0 += blk[0] - blk[0]
			a1 += blk[1] - blk[1]
			a2 += blk[2] - blk[2]
			a3 += blk[3] - blk[3]
		}
		for _, x := range blk {
			a0 += x - x
		}
		if a0+a1+a2+a3 != 0 {
			return true
		}
	}
	return false
}

// MaxAbsDiff returns the largest absolute element-wise difference, or +Inf on
// dimension mismatch.
func (g Gradient) MaxAbsDiff(other Gradient) float64 {
	if len(g) != len(other) {
		return math.Inf(1)
	}
	var mx float64
	for i := range g {
		if d := math.Abs(g[i] - other[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// Encode forms the coded gradient Σ_j coeff[j]·partials[j] for the partial
// gradients a worker computed. coeff[j] pairs with partials[j]; callers pass
// the non-zero entries of the worker's coding row in partition order. The
// result is freshly allocated; steady-state callers should pair EncodeInto
// with GetBuffer/PutBuffer instead.
func Encode(coeff []float64, partials []Gradient) (Gradient, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("%w: no partial gradients", ErrDimension)
	}
	out := make(Gradient, len(partials[0]))
	if err := EncodeInto(out, coeff, partials); err != nil {
		return nil, err
	}
	return out, nil
}

// Combine recombines coded gradients with decoding coefficients:
// g = Σ_i coeffs[i]·coded[i], skipping nil entries whose coefficient is zero
// (stragglers whose results never arrived). The result is freshly allocated;
// steady-state callers should pair CombineInto with GetBuffer/PutBuffer
// instead.
func Combine(coeffs []float64, coded []Gradient, dim int) (Gradient, error) {
	out := make(Gradient, dim)
	if err := CombineInto(out, coeffs, coded); err != nil {
		return nil, err
	}
	return out, nil
}

// Sum returns the plain sum of gradients (the uncoded ground truth used in
// tests and the naive scheme).
func Sum(gs []Gradient) (Gradient, error) {
	if len(gs) == 0 {
		return nil, fmt.Errorf("%w: empty sum", ErrDimension)
	}
	out := make(Gradient, len(gs[0]))
	if err := SumInto(out, gs); err != nil {
		return nil, err
	}
	return out, nil
}
