package ml

import (
	"errors"
	"math"
	"math/rand"
	goruntime "runtime"
	"testing"

	"github.com/hetgc/hetgc/internal/grad"
)

// gradientOnly hides a model's CodedGradient, so CodedGradient takes the
// per-partition path.
type gradientOnly struct{ Model }

// codedCase is one worker's coded-gradient input: a softmax model, its
// parameters, partition j with counts[j] samples, and a coefficient each.
type codedCase struct {
	m      *Softmax
	params []float64
	parts  []*Dataset
	coeffs []float64
}

// Per-partition layout bits for newCodedCase: the low three bits are the
// sample count; the rest pick the coefficient and seed the features.
const (
	layZeroCoeff = 1 << 3 // coefficient ±0
	layNegCoeff  = 1 << 4 // negative coefficient (−0 with layZeroCoeff)
	laySignedZ   = 1 << 5 // ±0 in every even feature column
	layNaN       = 1 << 6 // a NaN feature, honoured under a zero coefficient only
)

// newCodedCase builds a case from one layout byte per partition. saturate
// scales the parameters up until the softmax is exactly 0 or 1, so residuals
// are ±0 and products of zeros carry signs.
func newCodedCase(seed int64, classes, dim int, layout []byte, saturate bool) codedCase {
	r := rand.New(rand.NewSource(seed))
	m := &Softmax{InputDim: dim, NumClasses: classes}
	params := make([]float64, m.Dim())
	for i := range params {
		params[i] = r.NormFloat64()
		if saturate {
			params[i] *= 1e4
		}
	}
	cs := codedCase{m: m, params: params}
	for _, lay := range layout {
		d := &Dataset{Classes: classes}
		for i := 0; i < int(lay&7); i++ {
			x := make([]float64, dim)
			for j := range x {
				x[j] = r.NormFloat64()
				if lay&laySignedZ != 0 && j%2 == 0 {
					x[j] = math.Copysign(0, x[j])
				}
			}
			d.Features = append(d.Features, x)
			d.Labels = append(d.Labels, float64(r.Intn(classes)))
		}
		c := r.NormFloat64()
		if lay&layZeroCoeff != 0 {
			c = 0
			if lay&layNaN != 0 && d.N() > 0 {
				d.Features[0][r.Intn(dim)] = math.NaN()
			}
		}
		if lay&layNegCoeff != 0 {
			c = -math.Abs(c)
			if c == 0 {
				c = math.Copysign(0, -1)
			}
		}
		cs.parts = append(cs.parts, d)
		cs.coeffs = append(cs.coeffs, c)
	}
	return cs
}

// check compares CodedGradient over a dirty buffer with grad.EncodeInto over
// the Gradient partials, element by element.
func (cs codedCase) check(t *testing.T) {
	t.Helper()
	partials := make([]grad.Gradient, len(cs.parts))
	for j, d := range cs.parts {
		g, err := cs.m.Gradient(cs.params, d)
		if err != nil {
			t.Fatal(err)
		}
		partials[j] = g.Clone()
		grad.PutBuffer(g)
	}
	want := make(grad.Gradient, cs.m.Dim())
	if err := grad.EncodeInto(want, cs.coeffs, partials); err != nil {
		t.Fatal(err)
	}
	got := make(grad.Gradient, cs.m.Dim())
	for i := range got {
		got[i] = math.NaN()
	}
	if err := CodedGradient(cs.m, got, cs.params, cs.parts, cs.coeffs); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("coded[%d] = %v (%#x), EncodeInto over the partials %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// Every sample count the kernel treats apart (0, 1, 2, and the row-buffer
// counts 3 and 5), every block tail of 1 to 10 partitions, zero, negative and
// all-zero coefficients, signed zeros in features and residuals, and a NaN
// partition under a zero coefficient.
func TestCodedGradientMatchesEncode(t *testing.T) {
	counts := []byte{0, 1, 2, 3, 5}
	for parts := 1; parts <= 10; parts++ {
		for variant := 0; variant < 6; variant++ {
			layout := make([]byte, parts)
			for j := range layout {
				layout[j] = counts[(j+variant)%len(counts)]
				switch variant {
				case 1:
					layout[j] = 2 // the benchmark's shape
				case 2:
					if j%3 == 1 {
						layout[j] |= layZeroCoeff | layNaN
					}
				case 3:
					layout[j] |= layZeroCoeff // all zero
					if j%2 == 0 {
						layout[j] |= layNegCoeff
					}
				case 4:
					layout[j] |= layNegCoeff | laySignedZ
				}
			}
			for _, classes := range []int{2, 5} {
				for _, dim := range []int{1, 7} {
					seed := int64(1000*parts + 100*variant + 10*classes + dim)
					newCodedCase(seed, classes, dim, layout, variant == 5).check(t)
				}
			}
		}
	}
}

// FuzzCodedGradient holds CodedGradient to EncodeInto over the partials on
// any layout: one byte per partition, as newCodedCase reads it.
func FuzzCodedGradient(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), []byte{2, 2, 2, 2}, false)
	f.Add(int64(2), uint8(2), uint8(1), []byte{0, 1, 3, 5 | layZeroCoeff | layNaN, 2 | laySignedZ}, true)
	f.Add(int64(3), uint8(4), uint8(3), []byte{1 | layZeroCoeff | layNegCoeff, 2 | layZeroCoeff}, false)
	f.Fuzz(func(t *testing.T, seed int64, classes, dim uint8, layout []byte, saturate bool) {
		if len(layout) == 0 || len(layout) > 40 {
			t.Skip()
		}
		newCodedCase(seed, 2+int(classes%8), 1+int(dim%16), layout, saturate).check(t)
	})
}

// A shape the model refuses fails both paths with the same error kind:
// ErrBadData for the data or parameters, grad.ErrDimension for the coded
// buffer or the coefficients.
func TestCodedGradientErrors(t *testing.T) {
	cs := newCodedCase(7, 3, 4, []byte{2, 3}, false)
	short := &Dataset{Features: [][]float64{make([]float64, 3)}, Labels: []float64{0}, Classes: 3}
	for _, tc := range []struct {
		name   string
		dst    int
		params []float64
		parts  []*Dataset
		coeffs []float64
		want   error
	}{
		{name: "params", dst: cs.m.Dim(), params: cs.params[1:], parts: cs.parts, coeffs: cs.coeffs, want: ErrBadData},
		{name: "feature dim", dst: cs.m.Dim(), params: cs.params, parts: []*Dataset{cs.parts[0], short}, coeffs: cs.coeffs, want: ErrBadData},
		{name: "dst", dst: cs.m.Dim() - 1, params: cs.params, parts: cs.parts, coeffs: cs.coeffs, want: grad.ErrDimension},
		{name: "coefficients", dst: cs.m.Dim(), params: cs.params, parts: cs.parts, coeffs: cs.coeffs[:1], want: grad.ErrDimension},
	} {
		for _, m := range []Model{cs.m, gradientOnly{cs.m}} {
			err := CodedGradient(m, make(grad.Gradient, tc.dst), tc.params, tc.parts, tc.coeffs)
			if !errors.Is(err, tc.want) {
				t.Errorf("%s, %T: err = %v, want %v", tc.name, m, err, tc.want)
			}
		}
	}
}

// With no partitions both paths clear the buffer: a zero-load row uploads
// the zero vector.
func TestCodedGradientNoPartitions(t *testing.T) {
	m := &Softmax{InputDim: 3, NumClasses: 2}
	for _, mm := range []Model{m, gradientOnly{m}} {
		dst := grad.Gradient{math.NaN(), 1, 2, 3, 4, 5, 6, 7}
		if err := CodedGradient(mm, dst, m.InitParams(nil), nil, nil); err != nil {
			t.Fatal(err)
		}
		for i, v := range dst {
			if math.Float64bits(v) != 0 {
				t.Fatalf("%T: coded[%d] = %v, want +0", mm, i, v)
			}
		}
	}
}

// The one pass allocates nothing dim-sized in steady state: its scratch is
// the data's and comes from grad's pool.
func TestCodedGradientSteadyStateAllocs(t *testing.T) {
	m, params, d := softmaxCase(10, 10_000, 8, 61)
	parts, err := d.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := []float64{0.5, -1.25, 2, 0.75}
	coded := make(grad.Gradient, m.Dim())
	round := func() {
		if err := m.CodedGradient(coded, params, parts, coeffs); err != nil {
			t.Fatal(err)
		}
	}
	round() // fill the pool
	const runs = 20
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	testing.AllocsPerRun(runs, round)
	goruntime.ReadMemStats(&after)
	if bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1); bytes >= 1024 {
		t.Fatalf("steady-state CodedGradient: %.0f B per call, want < 1 KB (dim %d)", bytes, m.Dim())
	}
}
