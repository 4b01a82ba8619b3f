package ml

import (
	"testing"

	"github.com/hetgc/hetgc/internal/grad"
)

// The layer benchmarks behind the budget's ml.compute and grad.encode lines,
// at the end-to-end benchmark's shape: softmax over 10 classes × 10 000
// features (dim 100 010), 2 samples per partition, 4 partitions per worker.

// BenchmarkSoftmaxGradient is one Model.Gradient call as a worker makes it:
// the result goes back to the pool once consumed.
func BenchmarkSoftmaxGradient(b *testing.B) {
	m, params, d := softmaxCase(10, 10_000, 2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := m.Gradient(params, d)
		if err != nil {
			b.Fatal(err)
		}
		grad.PutBuffer(g)
	}
}

// BenchmarkWorkerComputeEncode is a worker's whole compute step: four partial
// gradients, encoded into a pooled coded buffer, every buffer returned.
func BenchmarkWorkerComputeEncode(b *testing.B) {
	m, params, d := softmaxCase(10, 10_000, 8, 2)
	parts, err := d.Split(4)
	if err != nil {
		b.Fatal(err)
	}
	coeffs := []float64{0.5, -1.25, 2, 0.75}
	partials := make([]grad.Gradient, len(parts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p, part := range parts {
			if partials[p], err = m.Gradient(params, part); err != nil {
				b.Fatal(err)
			}
		}
		coded := grad.GetBuffer(m.Dim())
		if err := grad.EncodeInto(coded, coeffs, partials); err != nil {
			b.Fatal(err)
		}
		for _, g := range partials {
			grad.PutBuffer(g)
		}
		grad.PutBuffer(coded)
	}
}

// BenchmarkWorkerComputeEncodeFused is BenchmarkWorkerComputeEncode through
// Softmax's one-pass CodedGradient: the same shape and coefficients, no
// partials and no separate encode pass.
func BenchmarkWorkerComputeEncodeFused(b *testing.B) {
	m, params, d := softmaxCase(10, 10_000, 8, 2)
	parts, err := d.Split(4)
	if err != nil {
		b.Fatal(err)
	}
	coeffs := []float64{0.5, -1.25, 2, 0.75}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coded := grad.GetBuffer(m.Dim())
		if err := m.CodedGradient(coded, params, parts, coeffs); err != nil {
			b.Fatal(err)
		}
		grad.PutBuffer(coded)
	}
}

// BenchmarkSGDStep is the root's optimizer step at the end-to-end
// benchmark's shape: momentum 0.9 over dim 100 010, the velocity warm.
func BenchmarkSGDStep(b *testing.B) {
	const dim = 100_010
	params := make([]float64, dim)
	g := make(grad.Gradient, dim)
	for i := range g {
		g[i] = float64(i%7) - 3
	}
	o := &SGD{LR: 0.01, Momentum: 0.9}
	if err := o.Step(params, g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.Step(params, g); err != nil {
			b.Fatal(err)
		}
	}
}
