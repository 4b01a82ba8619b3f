// Package ml is the machine-learning substrate standing in for the paper's
// PyTorch workloads: a synthetic classification dataset, the Model interface
// with its one coded-gradient helper (CodedGradient), softmax regression —
// the model every live path trains, forming its coded gradient in one pass —
// and first-order optimizers.
//
// Losses and gradients are *sums* over samples, so the partial gradients of
// a partitioned dataset add up exactly to the full-data gradient — the
// additivity the gradient-coding layer relies on.
package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrBadData is returned for malformed datasets or dimension mismatches.
var ErrBadData = errors.New("ml: invalid data")

// Dataset holds feature rows with either regression targets (Classes == 0)
// or integer class labels in [0, Classes).
type Dataset struct {
	// Features is the n×dim design matrix.
	Features [][]float64
	// Labels holds the target of each row: a real value for regression or a
	// class index (stored as float64) for classification.
	Labels []float64
	// Classes is the number of classes, or 0 for regression.
	Classes int
}

// N returns the number of samples.
func (d *Dataset) N() int { return len(d.Features) }

// Dim returns the feature dimension (0 for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.Features) == 0 {
		return 0
	}
	return len(d.Features[0])
}

// Validate checks structural consistency.
func (d *Dataset) Validate() error {
	if len(d.Features) != len(d.Labels) {
		return fmt.Errorf("%w: %d feature rows, %d labels", ErrBadData, len(d.Features), len(d.Labels))
	}
	dim := d.Dim()
	for i, row := range d.Features {
		if len(row) != dim {
			return fmt.Errorf("%w: row %d has dim %d, want %d", ErrBadData, i, len(row), dim)
		}
	}
	if d.Classes > 0 {
		for i, y := range d.Labels {
			c := int(y)
			if float64(c) != y || c < 0 || c >= d.Classes {
				return fmt.Errorf("%w: label[%d]=%v not a class in [0,%d)", ErrBadData, i, y, d.Classes)
			}
		}
	}
	return nil
}

// Split partitions the dataset into k near-equal contiguous shards (the data
// partitions D_1…D_k of the paper). The first n mod k shards receive one
// extra sample. Shards share the underlying rows (read-only use).
func (d *Dataset) Split(k int) ([]*Dataset, error) {
	if k <= 0 || k > d.N() {
		return nil, fmt.Errorf("%w: cannot split %d samples into %d partitions", ErrBadData, d.N(), k)
	}
	out := make([]*Dataset, k)
	n := d.N()
	base := n / k
	extra := n % k
	start := 0
	for i := 0; i < k; i++ {
		size := base
		if i < extra {
			size++
		}
		out[i] = &Dataset{
			Features: d.Features[start : start+size],
			Labels:   d.Labels[start : start+size],
			Classes:  d.Classes,
		}
		start += size
	}
	return out, nil
}

// GaussianMixture generates an n-sample, dim-dimensional classification
// dataset with the given number of classes: class c's samples are drawn from
// N(mu_c, I) where the class means are random directions scaled by sep.
// It is the synthetic stand-in for Cifar10/ImageNet image classification.
func GaussianMixture(n, dim, classes int, sep float64, rng *rand.Rand) (*Dataset, error) {
	if n <= 0 || dim <= 0 || classes < 2 || rng == nil {
		return nil, fmt.Errorf("%w: n=%d dim=%d classes=%d rng=%v", ErrBadData, n, dim, classes, rng != nil)
	}
	means := make([][]float64, classes)
	for c := range means {
		mu := make([]float64, dim)
		var norm float64
		for j := range mu {
			mu[j] = rng.NormFloat64()
			norm += mu[j] * mu[j]
		}
		if norm == 0 {
			norm = 1
		}
		scale := sep / math.Sqrt(norm)
		for j := range mu {
			mu[j] *= scale
		}
		means[c] = mu
	}
	d := &Dataset{
		Features: make([][]float64, n),
		Labels:   make([]float64, n),
		Classes:  classes,
	}
	for i := 0; i < n; i++ {
		c := i % classes // balanced classes
		row := make([]float64, dim)
		for j := range row {
			row[j] = means[c][j] + rng.NormFloat64()
		}
		d.Features[i] = row
		d.Labels[i] = float64(c)
	}
	// Shuffle so partitions are class-balanced in expectation.
	rng.Shuffle(n, func(i, j int) {
		d.Features[i], d.Features[j] = d.Features[j], d.Features[i]
		d.Labels[i], d.Labels[j] = d.Labels[j], d.Labels[i]
	})
	return d, nil
}
