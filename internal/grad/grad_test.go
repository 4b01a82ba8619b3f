package grad

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClone(t *testing.T) {
	g := Gradient{1, 2, 3}
	c := g.Clone()
	c[0] = 99
	if g[0] != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestScaleAndNorm(t *testing.T) {
	g := Gradient{3, 4}
	g.Scale(2)
	if g.Norm2() != 10 {
		t.Fatalf("norm = %v", g.Norm2())
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := Gradient{1, 2, 3}
	b := Gradient{1, 2.5, 2}
	if d := a.MaxAbsDiff(b); math.Abs(d-1) > 1e-12 {
		t.Fatalf("diff = %v", d)
	}
	if !math.IsInf(a.MaxAbsDiff(Gradient{1}), 1) {
		t.Fatal("mismatched dims should give +Inf")
	}
}

func TestEncode(t *testing.T) {
	partials := []Gradient{{1, 0}, {0, 1}}
	enc, err := Encode([]float64{2, 3}, partials)
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != 2 || enc[1] != 3 {
		t.Fatalf("enc = %v", enc)
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := Encode([]float64{1}, nil); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Encode([]float64{1, 1}, []Gradient{{1}, {1, 2}}); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Encode(nil, nil); !errors.Is(err, ErrDimension) {
		t.Fatalf("empty encode err = %v", err)
	}
}

func TestCombineSkipsStragglers(t *testing.T) {
	coded := []Gradient{{1, 1}, nil, {2, 2}}
	g, err := Combine([]float64{1, 0, 0.5}, coded, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g[0] != 2 || g[1] != 2 {
		t.Fatalf("g = %v", g)
	}
}

func TestCombineMissingWithNonZeroCoeff(t *testing.T) {
	if _, err := Combine([]float64{1}, []Gradient{nil}, 2); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v", err)
	}
}

func TestCombineDimErrors(t *testing.T) {
	if _, err := Combine([]float64{1, 1}, []Gradient{{1}}, 1); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Combine([]float64{1}, []Gradient{{1, 2}}, 1); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v", err)
	}
}

func TestSum(t *testing.T) {
	g, err := Sum([]Gradient{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if g[0] != 4 || g[1] != 6 {
		t.Fatalf("g = %v", g)
	}
	if _, err := Sum(nil); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Sum([]Gradient{{1}, {1, 2}}); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v", err)
	}
}

// Property: Encode is linear — Encode(a+b) = Encode(a) + Encode(b) over
// coefficients.
func TestEncodeLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		dim := 1 + r.Intn(8)
		partials := make([]Gradient, n)
		for i := range partials {
			partials[i] = make(Gradient, dim)
			for j := range partials[i] {
				partials[i][j] = r.NormFloat64()
			}
		}
		ca := make([]float64, n)
		cb := make([]float64, n)
		cs := make([]float64, n)
		for i := 0; i < n; i++ {
			ca[i], cb[i] = r.NormFloat64(), r.NormFloat64()
			cs[i] = ca[i] + cb[i]
		}
		ea, err1 := Encode(ca, partials)
		eb, err2 := Encode(cb, partials)
		es, err3 := Encode(cs, partials)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for j := 0; j < dim; j++ {
			if math.Abs(es[j]-(ea[j]+eb[j])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// infOrNaNRef is the per-element predicate the branch-free InfOrNaN must
// agree with.
func infOrNaNRef(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

func TestInfOrNaNMatchesReference(t *testing.T) {
	// Finite values that stress x − x: the extremes, denormals, both zeros.
	finite := []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 0, math.Copysign(0, -1), 1, -1e300}
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = finite[i%len(finite)]
		}
		return v
	}
	// Lengths around the 4-way unroll and the 1024-element block.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 1023, 1024, 1025, 2051} {
		v := fill(n)
		if InfOrNaN(v) || infOrNaNRef(v) {
			t.Fatalf("finite vector of length %d reported poisoned", n)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			// Every index of a short vector; every lane, the tail and both
			// sides of a block boundary of a long one.
			idx := []int{0, 1, 2, 3, n - 4, n - 3, n - 2, n - 1, 1020, 1023, 1024, 1027}
			for _, i := range idx {
				if i < 0 || i >= n {
					continue
				}
				v[i] = bad
				if got, want := InfOrNaN(v), infOrNaNRef(v); got != want || !got {
					t.Fatalf("len %d, %v at %d: InfOrNaN = %v, reference %v", n, bad, i, got, want)
				}
				v[i] = finite[i%len(finite)]
			}
		}
	}
	// +Inf and −Inf in one lane must not cancel.
	v := fill(8)
	v[0], v[4] = math.Inf(1), math.Inf(-1)
	if !InfOrNaN(v) {
		t.Fatal("+Inf and -Inf in the same lane cancelled")
	}
}
