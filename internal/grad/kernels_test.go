package grad

import (
	"math"
	"math/rand"
	"testing"
)

// Naive reference implementations: the scalar loops the optimized kernels
// replaced. The property tests assert the fused/unrolled/chunked kernels
// match these within 1e-12 across random shapes.

func encodeRef(coeff []float64, partials []Gradient) Gradient {
	out := make(Gradient, len(partials[0]))
	for j, p := range partials {
		c := coeff[j]
		if c == 0 {
			continue
		}
		for i, v := range p {
			out[i] += c * v
		}
	}
	return out
}

func combineRef(coeffs []float64, coded []Gradient, dim int) Gradient {
	out := make(Gradient, dim)
	for i, c := range coeffs {
		if c == 0 {
			continue
		}
		for j, v := range coded[i] {
			out[j] += c * v
		}
	}
	return out
}

func sumRef(gs []Gradient) Gradient {
	out := make(Gradient, len(gs[0]))
	for _, g := range gs {
		for j, v := range g {
			out[j] += v
		}
	}
	return out
}

func randomGradients(rng *rand.Rand, n, dim int) []Gradient {
	gs := make([]Gradient, n)
	for i := range gs {
		gs[i] = make(Gradient, dim)
		for j := range gs[i] {
			gs[i][j] = rng.NormFloat64()
		}
	}
	return gs
}

func maxAbsDiff(a, b Gradient) float64 {
	var mx float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

const propTol = 1e-12

func TestEncodePropertyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Dims run from one element to a model-sized vector; fan-ins straddle
	// the 4-block and the 32-entry stack scratch.
	dims := []int{1, 3, 17, 1000, 32767, 32771}
	for _, dim := range dims {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 33} {
			partials := randomGradients(rng, n, dim)
			coeff := make([]float64, n)
			for i := range coeff {
				coeff[i] = rng.NormFloat64()
				if rng.Intn(4) == 0 {
					coeff[i] = 0 // exercise the zero-coefficient skip
				}
			}
			want := encodeRef(coeff, partials)

			got, err := Encode(coeff, partials)
			if err != nil {
				t.Fatalf("dim=%d n=%d: %v", dim, n, err)
			}
			if d := maxAbsDiff(got, want); d > propTol {
				t.Fatalf("dim=%d n=%d: Encode diverges from naive by %g", dim, n, d)
			}

			dst := GetBuffer(dim)
			if err := EncodeInto(dst, coeff, partials); err != nil {
				t.Fatalf("dim=%d n=%d: %v", dim, n, err)
			}
			if d := maxAbsDiff(dst, want); d > propTol {
				t.Fatalf("dim=%d n=%d: EncodeInto diverges from naive by %g", dim, n, d)
			}
			PutBuffer(dst)
		}
	}
}

func TestEncodeAllZeroCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	partials := randomGradients(rng, 3, 50)
	coeff := []float64{0, 0, 0}
	dst := make(Gradient, 50)
	for i := range dst {
		dst[i] = 99 // stale contents must be overwritten
	}
	if err := EncodeInto(dst, coeff, partials); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("dst[%d] = %g, want 0 for all-zero coefficients", i, v)
		}
	}
}

func TestCombinePropertyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, dim := range []int{1, 5, 999, 32769} {
		for _, n := range []int{1, 4, 7, 12} {
			coded := randomGradients(rng, n, dim)
			coeffs := make([]float64, n)
			for i := range coeffs {
				coeffs[i] = rng.NormFloat64()
			}
			// Stragglers: nil gradients are fine when their coefficient is 0.
			if n > 2 {
				coeffs[1] = 0
				coded[1] = nil
			}
			want := combineRef(coeffs, coded, dim)

			got, err := Combine(coeffs, coded, dim)
			if err != nil {
				t.Fatalf("dim=%d n=%d: %v", dim, n, err)
			}
			if d := maxAbsDiff(got, want); d > propTol {
				t.Fatalf("dim=%d n=%d: Combine diverges from naive by %g", dim, n, d)
			}

			dst := GetBuffer(dim)
			if err := CombineInto(dst, coeffs, coded); err != nil {
				t.Fatalf("dim=%d n=%d: %v", dim, n, err)
			}
			if d := maxAbsDiff(dst, want); d > propTol {
				t.Fatalf("dim=%d n=%d: CombineInto diverges from naive by %g", dim, n, d)
			}
			PutBuffer(dst)
		}
	}
}

func TestCombineNilWithNonZeroCoefficient(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	coded := randomGradients(rng, 3, 10)
	coded[2] = nil
	dst := make(Gradient, 10)
	if err := CombineInto(dst, []float64{1, 1, 0.5}, coded); err == nil {
		t.Fatal("want error for non-zero coefficient on nil gradient")
	}
	if _, err := Combine([]float64{1, 1, 0.5}, coded, 10); err == nil {
		t.Fatal("want error for non-zero coefficient on nil gradient")
	}
}

func TestSumPropertyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, dim := range []int{1, 8, 1234, 32773} {
		for _, n := range []int{1, 2, 4, 5, 9} {
			gs := randomGradients(rng, n, dim)
			want := sumRef(gs)

			got, err := Sum(gs)
			if err != nil {
				t.Fatalf("dim=%d n=%d: %v", dim, n, err)
			}
			if d := maxAbsDiff(got, want); d > propTol {
				t.Fatalf("dim=%d n=%d: Sum diverges from naive by %g", dim, n, d)
			}

			dst := GetBuffer(dim)
			if err := SumInto(dst, gs); err != nil {
				t.Fatalf("dim=%d n=%d: %v", dim, n, err)
			}
			if d := maxAbsDiff(dst, want); d > propTol {
				t.Fatalf("dim=%d n=%d: SumInto diverges from naive by %g", dim, n, d)
			}
			PutBuffer(dst)
		}
	}
}

func TestIntoDimensionErrors(t *testing.T) {
	g5 := make(Gradient, 5)
	g6 := make(Gradient, 6)
	if err := EncodeInto(g5, []float64{1}, []Gradient{g6}); err == nil {
		t.Fatal("EncodeInto accepted mismatched dims")
	}
	if err := EncodeInto(g5, []float64{1, 2}, []Gradient{g5}); err == nil {
		t.Fatal("EncodeInto accepted mismatched coefficient count")
	}
	if err := EncodeInto(g5, nil, nil); err == nil {
		t.Fatal("EncodeInto accepted empty partials")
	}
	if err := CombineInto(g5, []float64{1}, []Gradient{g6}); err == nil {
		t.Fatal("CombineInto accepted mismatched dims")
	}
	if err := SumInto(g5, nil); err == nil {
		t.Fatal("SumInto accepted empty sum")
	}
	if err := SumInto(g5, []Gradient{g6}); err == nil {
		t.Fatal("SumInto accepted mismatched dims")
	}
}

func TestBufferPoolRecycles(t *testing.T) {
	b := GetBuffer(128)
	if len(b) != 128 {
		t.Fatalf("len = %d", len(b))
	}
	b[0] = 7
	PutBuffer(b)
	b2 := GetBuffer(64)
	if cap(b2) < 64 {
		t.Fatalf("cap = %d", cap(b2))
	}
	PutBuffer(b2)
	// nil round-trips silently.
	PutBuffer(nil)
	// Requesting more than any pooled buffer allocates fresh.
	big := GetBuffer(1 << 20)
	if len(big) != 1<<20 {
		t.Fatalf("len = %d", len(big))
	}
	PutBuffer(big)
}
