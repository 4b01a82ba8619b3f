package grad

import (
	"math/rand"
	"testing"
)

// Alloc-reporting kernel benchmarks: the steady-state *Into paths must stay
// at 0 allocs/op (the BENCH_baseline.json trajectory tracks them).

func benchInputs(b *testing.B, dim, n int) ([]float64, []Gradient) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	gs := make([]Gradient, n)
	for i := range gs {
		gs[i] = make(Gradient, dim)
		for j := range gs[i] {
			gs[i][j] = rng.NormFloat64()
		}
	}
	cs := make([]float64, n)
	for i := range cs {
		cs[i] = rng.NormFloat64()
	}
	return cs, gs
}

func BenchmarkEncodeInto(b *testing.B) {
	cs, ps := benchInputs(b, 100_000, 4)
	dst := make(Gradient, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := EncodeInto(dst, cs, ps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombineInto(b *testing.B) {
	cs, gs := benchInputs(b, 100_000, 8)
	cs[3] = 0
	gs[3] = nil
	dst := make(Gradient, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CombineInto(dst, cs, gs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeMean is the root's decode pass at the end-to-end
// benchmark's shape: 3 of 4 uploads live at dim 100 010, combined, scaled to
// the mean and checked finite in one pass.
func BenchmarkDecodeMean(b *testing.B) {
	cs, gs := benchInputs(b, 100_010, 4)
	cs[2], gs[2] = 0, nil
	dst := make(Gradient, 100_010)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if finite, err := DecodeMeanInto(dst, 1.0/48, cs, gs); err != nil || !finite {
			b.Fatal(finite, err)
		}
	}
}

func BenchmarkSumInto(b *testing.B) {
	_, gs := benchInputs(b, 100_000, 8)
	dst := make(Gradient, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SumInto(dst, gs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeNaiveReference measures the pre-kernel scalar loop for the
// speedup trajectory (same shape as BenchmarkEncodeInto).
func BenchmarkEncodeNaiveReference(b *testing.B) {
	cs, ps := benchInputs(b, 100_000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := encodeRef(cs, ps)
		_ = out
	}
}

// BenchmarkInfOrNaN is the ingest fence over one clean dim-1e5 upload (the
// case that scans the whole vector).
func BenchmarkInfOrNaN(b *testing.B) {
	_, gs := benchInputs(b, 100_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if InfOrNaN(gs[0]) {
			b.Fatal("clean vector reported poisoned")
		}
	}
}

// BenchmarkQuantize is the worker's int8 encode of one dim-100 010 coded
// gradient into a pooled payload buffer — the codec half of the traced
// grad.encode span on the int8 uplink. SetBytes counts the float64 input.
func BenchmarkQuantize(b *testing.B) {
	_, gs := benchInputs(b, 100_010, 1)
	vec := gs[0]
	b.SetBytes(int64(8 * len(vec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := AppendQuantized(GetBytes(8*len(vec)), CodecInt8, vec)
		if err != nil {
			b.Fatal(err)
		}
		PutBytes(q)
	}
}

func BenchmarkGetPutBuffer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := GetBuffer(100_000)
		PutBuffer(g)
	}
}
