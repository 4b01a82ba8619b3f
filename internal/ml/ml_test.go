package ml

import (
	"errors"
	"math"
	"math/rand"
	goruntime "runtime"
	"testing"
	"testing/quick"

	"github.com/hetgc/hetgc/internal/grad"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestGaussianMixtureShapeAndBalance(t *testing.T) {
	d, err := GaussianMixture(300, 5, 3, 4, rng(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.N() != 300 || d.Dim() != 5 || d.Classes != 3 {
		t.Fatalf("shape: n=%d dim=%d classes=%d", d.N(), d.Dim(), d.Classes)
	}
	counts := map[int]int{}
	for _, y := range d.Labels {
		counts[int(y)]++
	}
	for c := 0; c < 3; c++ {
		if counts[c] != 100 {
			t.Fatalf("class %d count = %d, want 100", c, counts[c])
		}
	}
}

func TestGaussianMixtureErrors(t *testing.T) {
	if _, err := GaussianMixture(0, 5, 3, 1, rng(1)); !errors.Is(err, ErrBadData) {
		t.Fatalf("err = %v", err)
	}
	if _, err := GaussianMixture(10, 5, 1, 1, rng(1)); !errors.Is(err, ErrBadData) {
		t.Fatalf("err = %v", err)
	}
	if _, err := GaussianMixture(10, 5, 2, 1, nil); !errors.Is(err, ErrBadData) {
		t.Fatalf("err = %v", err)
	}
}

func TestLinearData(t *testing.T) {
	d, err := LinearData(50, 4, 0.1, rng(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Classes != 0 {
		t.Fatal("regression dataset must have Classes = 0")
	}
}

func TestSplitSizesAndCoverage(t *testing.T) {
	d, _ := GaussianMixture(103, 3, 2, 2, rng(3))
	parts, err := d.Split(10)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, p := range parts {
		want := 10
		if i < 3 {
			want = 11
		}
		if p.N() != want {
			t.Fatalf("partition %d size %d, want %d", i, p.N(), want)
		}
		total += p.N()
	}
	if total != 103 {
		t.Fatalf("total = %d", total)
	}
}

func TestSplitErrors(t *testing.T) {
	d, _ := GaussianMixture(10, 3, 2, 2, rng(4))
	if _, err := d.Split(0); !errors.Is(err, ErrBadData) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.Split(11); !errors.Is(err, ErrBadData) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateCatchesBadLabels(t *testing.T) {
	d := &Dataset{Features: [][]float64{{1}}, Labels: []float64{5}, Classes: 3}
	if err := d.Validate(); !errors.Is(err, ErrBadData) {
		t.Fatalf("err = %v", err)
	}
	d2 := &Dataset{Features: [][]float64{{1}, {2, 3}}, Labels: []float64{0, 0}}
	if err := d2.Validate(); !errors.Is(err, ErrBadData) {
		t.Fatalf("ragged err = %v", err)
	}
}

// numericGradient approximates the gradient by central differences.
func numericGradient(t *testing.T, m Model, params []float64, d *Dataset) grad.Gradient {
	t.Helper()
	const h = 1e-5
	g := make(grad.Gradient, len(params))
	for i := range params {
		orig := params[i]
		params[i] = orig + h
		lp, err := m.Loss(params, d)
		if err != nil {
			t.Fatal(err)
		}
		params[i] = orig - h
		lm, err := m.Loss(params, d)
		if err != nil {
			t.Fatal(err)
		}
		params[i] = orig
		g[i] = (lp - lm) / (2 * h)
	}
	return g
}

func checkGradient(t *testing.T, m Model, d *Dataset, seed int64) {
	t.Helper()
	r := rng(seed)
	params := m.InitParams(r)
	for i := range params {
		params[i] += 0.3 * r.NormFloat64() // move off any special point
	}
	analytic, err := m.Gradient(params, d)
	if err != nil {
		t.Fatal(err)
	}
	numeric := numericGradient(t, m, params, d)
	scale := 1.0
	for _, v := range numeric {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if diff := analytic.MaxAbsDiff(numeric); diff > 1e-4*scale {
		t.Fatalf("gradient check failed: max diff %v (scale %v)", diff, scale)
	}
}

func TestLinearRegressionGradientCheck(t *testing.T) {
	d, _ := LinearData(20, 4, 0.1, rng(5))
	checkGradient(t, &LinearRegression{InputDim: 4}, d, 6)
}

func TestLogisticRegressionGradientCheck(t *testing.T) {
	d, _ := GaussianMixture(20, 4, 2, 2, rng(7))
	checkGradient(t, &LogisticRegression{InputDim: 4}, d, 8)
}

func TestSoftmaxGradientCheck(t *testing.T) {
	d, _ := GaussianMixture(20, 4, 3, 2, rng(9))
	checkGradient(t, &Softmax{InputDim: 4, NumClasses: 3}, d, 10)
}

func TestMLPGradientCheck(t *testing.T) {
	d, _ := GaussianMixture(15, 4, 3, 2, rng(11))
	checkGradient(t, &MLP{InputDim: 4, Hidden: 6, NumClasses: 3}, d, 12)
}

// The coding layer depends on exact gradient additivity across partitions.
func TestGradientAdditivityAcrossPartitions(t *testing.T) {
	models := []Model{
		&LinearRegression{InputDim: 3},
		&Softmax{InputDim: 3, NumClasses: 3},
		&MLP{InputDim: 3, Hidden: 5, NumClasses: 3},
	}
	for _, m := range models {
		var d *Dataset
		if _, ok := m.(*LinearRegression); ok {
			d, _ = LinearData(60, 3, 0.1, rng(13))
		} else {
			d, _ = GaussianMixture(60, 3, 3, 2, rng(13))
		}
		params := m.InitParams(rng(14))
		full, err := m.Gradient(params, d)
		if err != nil {
			t.Fatal(err)
		}
		parts, _ := d.Split(7)
		partials := make([]grad.Gradient, len(parts))
		for i, p := range parts {
			partials[i], err = m.Gradient(params, p)
			if err != nil {
				t.Fatal(err)
			}
		}
		sum, err := grad.Sum(partials)
		if err != nil {
			t.Fatal(err)
		}
		if diff := full.MaxAbsDiff(sum); diff > 1e-9 {
			t.Fatalf("%T: partition gradients not additive, diff %v", m, diff)
		}
	}
}

func TestDimMismatchErrors(t *testing.T) {
	d, _ := GaussianMixture(5, 3, 2, 2, rng(15))
	lr := &LogisticRegression{InputDim: 3}
	if _, err := lr.Loss([]float64{1}, d); !errors.Is(err, ErrBadData) {
		t.Fatalf("err = %v", err)
	}
	sm := &Softmax{InputDim: 3, NumClasses: 5}
	if _, err := sm.Gradient(sm.InitParams(nil), d); !errors.Is(err, ErrBadData) {
		t.Fatalf("class mismatch err = %v", err)
	}
}

func TestSGDReducesLossOnConvexProblem(t *testing.T) {
	d, _ := LinearData(200, 5, 0.01, rng(16))
	m := &LinearRegression{InputDim: 5}
	params := m.InitParams(nil)
	opt := &SGD{LR: 0.1}
	start, _ := MeanLoss(m, params, d)
	for it := 0; it < 200; it++ {
		g, err := m.Gradient(params, d)
		if err != nil {
			t.Fatal(err)
		}
		g.Scale(1 / float64(d.N()))
		if err := opt.Step(params, g); err != nil {
			t.Fatal(err)
		}
	}
	end, _ := MeanLoss(m, params, d)
	if end > start/10 {
		t.Fatalf("SGD failed to converge: %v -> %v", start, end)
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	d, _ := LinearData(100, 3, 0.01, rng(17))
	m := &LinearRegression{InputDim: 3}
	params := m.InitParams(nil)
	opt := &SGD{LR: 0.02, Momentum: 0.9}
	for it := 0; it < 150; it++ {
		g, _ := m.Gradient(params, d)
		g.Scale(1 / float64(d.N()))
		if err := opt.Step(params, g); err != nil {
			t.Fatal(err)
		}
	}
	end, _ := MeanLoss(m, params, d)
	if end > 0.05 {
		t.Fatalf("momentum SGD loss %v too high", end)
	}
}

func TestAdamConvergesOnSoftmax(t *testing.T) {
	d, _ := GaussianMixture(300, 4, 3, 3, rng(18))
	m := &Softmax{InputDim: 4, NumClasses: 3}
	params := m.InitParams(nil)
	opt := &Adam{LR: 0.05}
	for it := 0; it < 120; it++ {
		g, _ := m.Gradient(params, d)
		g.Scale(1 / float64(d.N()))
		if err := opt.Step(params, g); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := m.Accuracy(params, d)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("accuracy %v too low for separable mixture", acc)
	}
}

func TestMLPTrainsOnMixture(t *testing.T) {
	d, _ := GaussianMixture(200, 4, 3, 3, rng(19))
	m := &MLP{InputDim: 4, Hidden: 12, NumClasses: 3}
	params := m.InitParams(rng(20))
	opt := &SGD{LR: 0.05, Momentum: 0.9}
	start, _ := MeanLoss(m, params, d)
	for it := 0; it < 150; it++ {
		g, _ := m.Gradient(params, d)
		g.Scale(1 / float64(d.N()))
		if err := opt.Step(params, g); err != nil {
			t.Fatal(err)
		}
	}
	end, _ := MeanLoss(m, params, d)
	if end > start*0.5 {
		t.Fatalf("MLP did not train: %v -> %v", start, end)
	}
}

func TestOptimizerValidation(t *testing.T) {
	if err := (&SGD{LR: 0}).Step([]float64{1}, grad.Gradient{1}); err == nil {
		t.Fatal("zero LR must error")
	}
	if err := (&SGD{LR: 1, Momentum: 1}).Step([]float64{1}, grad.Gradient{1}); err == nil {
		t.Fatal("momentum 1 must error")
	}
	if err := (&SGD{LR: 1}).Step([]float64{1}, grad.Gradient{1, 2}); err == nil {
		t.Fatal("dim mismatch must error")
	}
	if err := (&Adam{LR: 0}).Step([]float64{1}, grad.Gradient{1}); err == nil {
		t.Fatal("Adam zero LR must error")
	}
	if err := (&Adam{LR: 1}).Step([]float64{1}, grad.Gradient{1, 2}); err == nil {
		t.Fatal("Adam dim mismatch must error")
	}
}

func TestMeanLossEmptyDataset(t *testing.T) {
	m := &LinearRegression{InputDim: 1}
	if _, err := MeanLoss(m, m.InitParams(nil), &Dataset{}); !errors.Is(err, ErrBadData) {
		t.Fatalf("err = %v", err)
	}
}

func TestSigmoidStable(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Fatalf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Fatalf("sigmoid(-1000) = %v", s)
	}
	if math.Abs(sigmoid(0)-0.5) > 1e-12 {
		t.Fatal("sigmoid(0) != 0.5")
	}
}

func TestLogSumExpStable(t *testing.T) {
	v := logSumExp([]float64{1000, 1000})
	if math.IsInf(v, 0) || math.Abs(v-(1000+math.Log(2))) > 1e-9 {
		t.Fatalf("logSumExp = %v", v)
	}
}

// Property: softmax probabilities are a distribution.
func TestSoftmaxDistributionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rng(seed)
		n := 2 + r.Intn(6)
		z := make([]float64, n)
		for i := range z {
			z[i] = r.NormFloat64() * 10
		}
		out := make([]float64, n)
		softmaxInto(z, out)
		var sum float64
		for _, p := range out {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: gradient additivity holds for random splits of random data.
func TestAdditivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rng(seed)
		n := 20 + r.Intn(40)
		d, err := GaussianMixture(n, 3, 2, 2, r)
		if err != nil {
			return false
		}
		m := &Softmax{InputDim: 3, NumClasses: 2}
		params := m.InitParams(nil)
		for i := range params {
			params[i] = r.NormFloat64()
		}
		full, err := m.Gradient(params, d)
		if err != nil {
			return false
		}
		k := 2 + r.Intn(5)
		parts, err := d.Split(k)
		if err != nil {
			return false
		}
		partials := make([]grad.Gradient, k)
		for i, p := range parts {
			partials[i], err = m.Gradient(params, p)
			if err != nil {
				return false
			}
		}
		sum, err := grad.Sum(partials)
		if err != nil {
			return false
		}
		return full.MaxAbsDiff(sum) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSGDStateRoundTrip(t *testing.T) {
	params := []float64{1, 2, 3}
	twin := append([]float64(nil), params...)
	g := grad.Gradient{0.5, -0.5, 1}

	o := &SGD{LR: 0.1, Momentum: 0.9}
	for i := 0; i < 3; i++ {
		if err := o.Step(params, g); err != nil {
			t.Fatal(err)
		}
	}
	vecs, step := o.OptimizerState()
	o2 := &SGD{LR: 0.1, Momentum: 0.9}
	if err := o2.RestoreOptimizerState(vecs, step); err != nil {
		t.Fatal(err)
	}
	// The restored optimizer must continue the exact trajectory.
	copy(twin, params)
	if err := o.Step(params, g); err != nil {
		t.Fatal(err)
	}
	if err := o2.Step(twin, g); err != nil {
		t.Fatal(err)
	}
	for i := range params {
		if params[i] != twin[i] {
			t.Fatalf("restored SGD diverged at %d: %v vs %v", i, twin[i], params[i])
		}
	}
	if err := o2.RestoreOptimizerState([][]float64{{1}, {2}, {3}}, 0); err == nil {
		t.Fatal("SGD restore accepted 3 state vectors")
	}
	cold := &SGD{LR: 0.1}
	if vecs, _ := cold.OptimizerState(); vecs != nil {
		t.Fatalf("cold SGD state %v, want nil", vecs)
	}
}

func TestAdamStateRoundTrip(t *testing.T) {
	params := []float64{1, 2, 3}
	twin := append([]float64(nil), params...)
	g := grad.Gradient{0.5, -0.5, 1}

	o := &Adam{LR: 0.05}
	for i := 0; i < 4; i++ {
		if err := o.Step(params, g); err != nil {
			t.Fatal(err)
		}
	}
	vecs, step := o.OptimizerState()
	if step != 4 || len(vecs) != 2 {
		t.Fatalf("Adam state %d vecs step %d, want 2 vecs step 4", len(vecs), step)
	}
	o2 := &Adam{LR: 0.05}
	if err := o2.RestoreOptimizerState(vecs, step); err != nil {
		t.Fatal(err)
	}
	copy(twin, params)
	if err := o.Step(params, g); err != nil {
		t.Fatal(err)
	}
	if err := o2.Step(twin, g); err != nil {
		t.Fatal(err)
	}
	for i := range params {
		if params[i] != twin[i] {
			t.Fatalf("restored Adam diverged at %d: %v vs %v (bias correction lost?)", i, twin[i], params[i])
		}
	}
	if err := o2.RestoreOptimizerState([][]float64{{1}, {2, 3}}, 1); err == nil {
		t.Fatal("Adam restore accepted mismatched moment lengths")
	}
	if err := o2.RestoreOptimizerState(nil, -1); err == nil {
		t.Fatal("Adam restore accepted negative step")
	}
}

// refSoftmaxLogits, refSoftmaxLoss and refSoftmaxGradient are the
// one-class-at-a-time, one-sample-at-a-time loops the blocked kernel in
// softmax.go replaced, kept as its arithmetic reference.
func refSoftmaxLogits(m *Softmax, params, x, out []float64) {
	biasOff := m.NumClasses * m.InputDim
	for c := 0; c < m.NumClasses; c++ {
		s := params[biasOff+c]
		row := params[c*m.InputDim : (c+1)*m.InputDim]
		for j, xj := range x {
			s += row[j] * xj
		}
		out[c] = s
	}
}

func refSoftmaxLoss(m *Softmax, params []float64, d *Dataset) float64 {
	var sum float64
	logits := make([]float64, m.NumClasses)
	for i, x := range d.Features {
		refSoftmaxLogits(m, params, x, logits)
		sum += logSumExp(logits) - logits[int(d.Labels[i])]
	}
	return sum
}

func refSoftmaxGradient(m *Softmax, params []float64, d *Dataset) grad.Gradient {
	g := make(grad.Gradient, m.Dim())
	logits := make([]float64, m.NumClasses)
	probs := make([]float64, m.NumClasses)
	biasOff := m.NumClasses * m.InputDim
	for i, x := range d.Features {
		refSoftmaxLogits(m, params, x, logits)
		softmaxInto(logits, probs)
		y := int(d.Labels[i])
		for c := 0; c < m.NumClasses; c++ {
			r := probs[c]
			if c == y {
				r -= 1
			}
			row := g[c*m.InputDim : (c+1)*m.InputDim]
			for j, xj := range x {
				row[j] += r * xj
			}
			g[biasOff+c] += r
		}
	}
	return g
}

// sameFloat is the kernel's contract against the reference loops: the same
// bits on amd64, where the compiler emits the multiplies and adds as written;
// within 1e-12 relative elsewhere, where it may fuse them differently.
func sameFloat(got, want float64) bool {
	if goruntime.GOARCH == "amd64" {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want))
}

// softmaxCase builds a model, off-origin parameters and an n-sample dataset
// (n may be 0) for a kernel test.
func softmaxCase(classes, dim, n int, seed int64) (*Softmax, []float64, *Dataset) {
	r := rng(seed)
	m := &Softmax{InputDim: dim, NumClasses: classes}
	params := m.InitParams(nil)
	for i := range params {
		params[i] = r.NormFloat64()
	}
	d := &Dataset{Classes: classes}
	if n > 0 {
		d, _ = GaussianMixture(n, dim, classes, 2, r)
	}
	return m, params, d
}

// Every block tail of the class loop (C mod 4), every pair tail of the sample
// loop and dims below, at and above the unroll widths.
func TestSoftmaxKernelMatchesReference(t *testing.T) {
	for _, classes := range []int{2, 3, 4, 5, 10} {
		for _, n := range []int{0, 1, 2, 3, 5} {
			for _, dim := range []int{1, 7, 64} {
				m, params, d := softmaxCase(classes, dim, n, int64(100*classes+10*n+dim))
				got, err := m.Gradient(params, d)
				if err != nil {
					t.Fatal(err)
				}
				want := refSoftmaxGradient(m, params, d)
				if len(got) != len(want) {
					t.Fatalf("C=%d n=%d D=%d: len %d, want %d", classes, n, dim, len(got), len(want))
				}
				for i := range want {
					if !sameFloat(got[i], want[i]) {
						t.Fatalf("C=%d n=%d D=%d: gradient[%d] = %x, reference %x", classes, n, dim, i, got[i], want[i])
					}
				}
				loss, err := m.Loss(params, d)
				if err != nil {
					t.Fatal(err)
				}
				if ref := refSoftmaxLoss(m, params, d); !sameFloat(loss, ref) {
					t.Fatalf("C=%d n=%d D=%d: loss = %x, reference %x", classes, n, dim, loss, ref)
				}
			}
		}
	}
}

// A feature column of exact zeros is the one place the fused first pass can
// differ from the reference in bits: r·0 summed from nothing keeps a −0 the
// reference's leading 0 + … turned into +0. The values are still equal.
func TestSoftmaxKernelZeroFeatures(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		m, params, d := softmaxCase(3, 5, n, int64(n))
		for _, x := range d.Features {
			x[1], x[4] = 0, 0
		}
		got, err := m.Gradient(params, d)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range refSoftmaxGradient(m, params, d) {
			if got[i] != want {
				t.Fatalf("n=%d: gradient[%d] = %v, reference %v", n, i, got[i], want)
			}
		}
	}
}

// The gradient buffer comes from grad's pool with unspecified contents: the
// kernel must overwrite all of it, the empty dataset's all-zero result too.
func TestSoftmaxGradientOverwritesDirtyPool(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5} {
		m, params, d := softmaxCase(5, 7, n, int64(40+n))
		want := refSoftmaxGradient(m, params, d)
		dirty := make([]grad.Gradient, 4)
		for i := range dirty {
			dirty[i] = make(grad.Gradient, m.Dim())
			for j := range dirty[i] {
				dirty[i][j] = math.NaN()
			}
			grad.PutBuffer(dirty[i])
		}
		got, err := m.Gradient(params, d)
		if err != nil {
			t.Fatal(err)
		}
		pooled := false
		for _, b := range dirty {
			pooled = pooled || &b[0] == &got[0]
		}
		if !pooled {
			t.Fatalf("n=%d: result did not come from the seeded pool", n)
		}
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("n=%d: gradient[%d] = %v over a dirty buffer, reference %v", n, i, got[i], want[i])
			}
		}
		for range dirty[1:] { // leave no NaN buffers behind for other tests
			grad.GetBuffer(m.Dim())
		}
	}
}

// Two results a caller still holds never share memory, pooled or not.
func TestSoftmaxGradientResultsDoNotAlias(t *testing.T) {
	m, params, d := softmaxCase(3, 7, 2, 50)
	grad.PutBuffer(make(grad.Gradient, m.Dim()))
	a, _ := m.Gradient(params, d)
	b, _ := m.Gradient(params, d)
	if &a[0] == &b[0] {
		t.Fatal("two live gradients share a buffer")
	}
	want := a.Clone()
	for i := range b {
		b[i] = math.NaN()
	}
	if diff := a.MaxAbsDiff(want); diff != 0 {
		t.Fatalf("writing one result changed the other by %v", diff)
	}
}

// A worker's steady-state round — gradient into a pooled buffer, encode,
// buffers returned — allocates only the per-call residual scratch.
func TestSoftmaxGradientSteadyStateAllocs(t *testing.T) {
	m, params, d := softmaxCase(10, 10_000, 2, 60)
	coded := make(grad.Gradient, m.Dim())
	round := func() {
		g, err := m.Gradient(params, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := grad.EncodeInto(coded, []float64{0.5}, []grad.Gradient{g}); err != nil {
			t.Fatal(err)
		}
		grad.PutBuffer(g)
	}
	round() // fill the pool
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	const runs = 20
	allocs := testing.AllocsPerRun(runs, round)
	goruntime.ReadMemStats(&after)
	// AllocsPerRun calls round runs+1 times.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	if allocs > 4 || bytes >= 1024 {
		t.Fatalf("steady-state round: %.0f allocs, %.0f B; want <= 4 allocs and < 1 KB (dim %d)", allocs, bytes, m.Dim())
	}
}

// A shard whose feature dimension is not the model's must be refused, not
// truncated (short rows) or indexed out of range (long ones); an empty
// dataset has no rows to be wrong.
func TestFeatureDimMismatch(t *testing.T) {
	const dim = 4
	models := map[string]struct {
		m       Model
		classes int
	}{
		"softmax":  {&Softmax{InputDim: dim, NumClasses: 3}, 3},
		"linear":   {&LinearRegression{InputDim: dim}, 0},
		"logistic": {&LogisticRegression{InputDim: dim}, 2},
		"mlp":      {&MLP{InputDim: dim, Hidden: 5, NumClasses: 3}, 3},
	}
	for name, tc := range models {
		params := tc.m.InitParams(rng(70))
		for _, width := range []int{dim - 1, dim + 1, dim, 0} {
			d := &Dataset{Classes: tc.classes}
			if width > 0 {
				d.Features = [][]float64{make([]float64, width), make([]float64, width)}
				d.Labels = []float64{0, 1}
			}
			_, gErr := tc.m.Gradient(params, d)
			_, lErr := tc.m.Loss(params, d)
			wantErr := width > 0 && width != dim
			if errors.Is(gErr, ErrBadData) != wantErr || errors.Is(lErr, ErrBadData) != wantErr {
				t.Fatalf("%s, data dim %d (model %d): Gradient err %v, Loss err %v, want ErrBadData: %v",
					name, width, dim, gErr, lErr, wantErr)
			}
		}
	}
	sm := &Softmax{InputDim: dim, NumClasses: 3}
	short := &Dataset{Features: [][]float64{make([]float64, dim-1)}, Labels: []float64{0}, Classes: 3}
	if _, err := sm.Accuracy(sm.InitParams(nil), short); !errors.Is(err, ErrBadData) {
		t.Fatalf("Accuracy on a short row: err = %v", err)
	}
}
