package grad

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// decodeMeanRef is the decode pass one element at a time, in lincomb's
// order: the live terms in blocks of four, each block's value
// (c0·x0 + c1·x1) + (c2·x2 + c3·x3) added to the element, a short last block
// as (c0·x0 + c1·x1) + c2·x2, c0·x0 + c1·x1 or c0·x0; then the product by
// α. It reports finiteness element by element.
func decodeMeanRef(alpha float64, coeffs []float64, coded []Gradient, dim int) (Gradient, bool) {
	var cs []float64
	var xs []Gradient
	for i, c := range coeffs {
		if c != 0 {
			cs, xs = append(cs, c), append(xs, coded[i])
		}
	}
	out := make(Gradient, dim)
	finite := true
	for j := range out {
		var acc float64
		for b := 0; b < len(cs); b += 4 {
			c, x := cs[b:min(b+4, len(cs))], xs[b:min(b+4, len(xs))]
			var v float64
			switch len(c) {
			case 4:
				v = (c[0]*x[0][j] + c[1]*x[1][j]) + (c[2]*x[2][j] + c[3]*x[3][j])
			case 3:
				v = (c[0]*x[0][j] + c[1]*x[1][j]) + c[2]*x[2][j]
			case 2:
				v = c[0]*x[0][j] + c[1]*x[1][j]
			case 1:
				v = c[0] * x[0][j]
			}
			if b == 0 {
				acc = v
			} else {
				acc += v
			}
		}
		out[j] = acc * alpha
		if math.IsNaN(out[j]) || math.IsInf(out[j], 0) {
			finite = false
		}
	}
	return out, finite
}

// sameBits is bit identity, with any NaN equal to any other: a NaN's payload
// is the hardware's choice, not the kernel's.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkDecodeMean runs DecodeMeanInto on a dirty buffer and holds it to
// the element-wise reference and to the composition CombineInto → Scale →
// InfOrNaN, bit for bit, finiteness included.
func checkDecodeMean(t *testing.T, name string, alpha float64, coeffs []float64, coded []Gradient, dim int) {
	t.Helper()
	want, wantFinite := decodeMeanRef(alpha, coeffs, coded, dim)
	comp := make(Gradient, dim)
	if err := CombineInto(comp, coeffs, coded); err != nil {
		t.Fatalf("%s: CombineInto: %v", name, err)
	}
	comp.Scale(alpha)
	if InfOrNaN(comp) == wantFinite {
		t.Fatalf("%s: the composition's InfOrNaN = %v, reference finite = %v", name, !wantFinite, wantFinite)
	}
	dst := make(Gradient, dim)
	for i := range dst {
		dst[i] = math.NaN()
	}
	finite, err := DecodeMeanInto(dst, alpha, coeffs, coded)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if finite != wantFinite {
		t.Fatalf("%s: finite = %v, want %v", name, finite, wantFinite)
	}
	for i := range want {
		if !sameBits(dst[i], want[i]) || !sameBits(comp[i], want[i]) {
			t.Fatalf("%s: element %d = %x, composition %x, reference %x", name, i, dst[i], comp[i], want[i])
		}
	}
}

// The decode pass for 1–8 live coefficients (more than one block of four)
// with nil uploads behind zero coefficients, from one element to a
// model-sized vector, and with a NaN or ±Inf planted at the first element,
// the middle and the last.
func TestDecodeMeanMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const alpha = 1.0 / 48
	for _, dim := range []int{1, 7, 1025, 65539} {
		for live := 1; live <= 8; live++ {
			// Every third slot is a straggler: zero coefficient, no upload.
			var coeffs []float64
			var coded []Gradient
			for len(coeffs) < live+live/2 {
				if len(coeffs)%3 == 2 {
					coeffs, coded = append(coeffs, 0), append(coded, nil)
					continue
				}
				coeffs = append(coeffs, rng.NormFloat64())
				coded = append(coded, randomGradients(rng, 1, dim)[0])
			}
			checkDecodeMean(t, "clean", alpha, coeffs, coded, dim)
			for _, at := range []int{0, dim / 2, dim - 1} {
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					x := coded[0]
					keep := x[at]
					x[at] = bad
					checkDecodeMean(t, "poisoned", alpha, coeffs, coded, dim)
					x[at] = keep
				}
			}
		}
	}
}

// The scale itself can leave the finite range: a finite sum times a large α
// overflows, and the pass reports it.
func TestDecodeMeanScaleOverflow(t *testing.T) {
	coded := []Gradient{{1e300, -1e300, 1}}
	checkDecodeMean(t, "overflow", 1e10, []float64{1}, coded, 3)
}

// sumMeanRef is SumMeanInto one element at a time, in sumTile's order: the
// first vector, then blocks of four added as (x0 + x1) + (x2 + x3), then the
// rest one by one; then the product by α.
func sumMeanRef(alpha float64, gs []Gradient) (Gradient, bool) {
	out := make(Gradient, len(gs[0]))
	finite := true
	for j := range out {
		acc, rest := gs[0][j], gs[1:]
		for ; len(rest) >= 4; rest = rest[4:] {
			acc += (rest[0][j] + rest[1][j]) + (rest[2][j] + rest[3][j])
		}
		for _, g := range rest {
			acc += g[j]
		}
		out[j] = acc * alpha
		if math.IsNaN(out[j]) || math.IsInf(out[j], 0) {
			finite = false
		}
	}
	return out, finite
}

// SumMeanInto for 1–9 inputs, across tiles, clean and with a NaN or ±Inf
// planted at the first element, the last, and a tile boundary — and two
// finite inputs whose sum overflows.
func TestSumMeanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	check := func(name string, alpha float64, gs []Gradient) {
		t.Helper()
		want, wantFinite := sumMeanRef(alpha, gs)
		dst := make(Gradient, len(want))
		finite, err := SumMeanInto(dst, alpha, gs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if finite != wantFinite {
			t.Fatalf("%s: finite = %v, want %v", name, finite, wantFinite)
		}
		for i := range want {
			if !sameBits(dst[i], want[i]) {
				t.Fatalf("%s: element %d = %x, reference %x", name, i, dst[i], want[i])
			}
		}
	}
	for _, dim := range []int{1, 7, tileLen + 3, 65539} {
		for n := 1; n <= 9; n++ {
			gs := randomGradients(rng, n, dim)
			check("clean", 1.0/48, gs)
			for _, at := range []int{0, dim - 1, tileLen - 1, tileLen} {
				if at >= dim {
					continue
				}
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					keep := gs[n-1][at]
					gs[n-1][at] = bad
					check("poisoned", 1.0/48, gs)
					gs[n-1][at] = keep
				}
			}
		}
	}
	check("overflow", 0.5, []Gradient{{math.MaxFloat64, 1}, {math.MaxFloat64, 1}})
}

// FuzzDecodeMean holds the pass to the reference and the composition on
// fuzzed coefficient bits, vector bits and α: up to eight uploads of up to
// eight elements each, any float64 bit pattern, NaNs and infinities included.
// A zero coefficient leaves its slot nil.
func FuzzDecodeMean(f *testing.F) {
	f.Add(math.Float64bits(0.25), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Add(math.Float64bits(1e300), []byte{0x7f, 0xef, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, alphaBits uint64, raw []byte) {
		alpha := math.Float64frombits(alphaBits)
		words := make([]float64, 0, len(raw)/8)
		for ; len(raw) >= 8; raw = raw[8:] {
			words = append(words, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		}
		if len(words) < 2 {
			return
		}
		// The first word picks the shape; then each upload is a coefficient
		// followed by dim elements.
		shape := math.Float64bits(words[0])
		n, dim := int(shape%8)+1, int(shape/8%8)+1
		words = words[1:]
		var coeffs []float64
		var coded []Gradient
		for i := 0; i < n && len(words) > 0; i++ {
			c := words[0]
			words = words[1:]
			v := make(Gradient, dim)
			for j := range v {
				if len(words) > 0 {
					v[j], words = words[0], words[1:]
				}
			}
			if c == 0 {
				v = nil
			}
			coeffs, coded = append(coeffs, c), append(coded, v)
		}
		if len(coeffs) == 0 {
			return
		}
		checkDecodeMean(t, "fuzz", alpha, coeffs, coded, dim)
	})
}

// The kernels run on the calling goroutine at every dimension, so none of
// them allocates, at the end-to-end benchmark's model size included.
func TestMeanPassesSerialAllocs(t *testing.T) {
	const dim = 100_010
	gs := randomGradients(rand.New(rand.NewSource(54)), 3, dim)
	dst := make(Gradient, dim)
	coeffs := []float64{1, 0.5, -2}
	for _, k := range []struct {
		name string
		call func()
	}{
		{"EncodeInto", func() { _ = EncodeInto(dst, coeffs, gs) }},
		{"CombineInto", func() { _ = CombineInto(dst, coeffs, gs) }},
		{"DecodeMeanInto", func() { _, _ = DecodeMeanInto(dst, 0.5, coeffs, gs) }},
		{"SumInto", func() { _ = SumInto(dst, gs) }},
		{"SumMeanInto", func() { _, _ = SumMeanInto(dst, 0.5, gs) }},
	} {
		if n := testing.AllocsPerRun(20, k.call); n != 0 {
			t.Errorf("%s: %v allocs per call at dim %d, want 0", k.name, n, dim)
		}
	}
}
