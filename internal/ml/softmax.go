package ml

import (
	"math"
	"math/rand"

	"github.com/hetgc/hetgc/internal/grad"
)

// Softmax is multinomial logistic regression: C-way classification with
// cross-entropy loss. Parameters are laid out as W (C×dim, row-major)
// followed by biases b (C).
type Softmax struct {
	// InputDim is the feature dimension.
	InputDim int
	// NumClasses is C ≥ 2.
	NumClasses int
}

// Dim implements Model.
func (m *Softmax) Dim() int { return m.NumClasses * (m.InputDim + 1) }

// InitParams implements Model (zeros: the problem is convex).
func (m *Softmax) InitParams(*rand.Rand) []float64 { return make([]float64, m.Dim()) }

// Loss implements Model.
func (m *Softmax) Loss(params []float64, d *Dataset) (float64, error) {
	if err := checkDims(m, params, d, m.InputDim, m.NumClasses); err != nil {
		return 0, err
	}
	var sum float64
	logits := make([]float64, m.NumClasses)
	for i, x := range d.Features {
		m.logits(params, x, logits)
		sum += logSumExp(logits) - logits[int(d.Labels[i])]
	}
	return sum, nil
}

// Gradient implements Model. The residuals p_c − 1{c=y} of every sample are
// computed first, so each class row of the result is then built in one go:
// the first two samples fused into one overwriting pass, later pairs
// accumulated in sample order, which keeps every element's sum in the order a
// sample-by-sample update adds it. Every element is written, so the buffer
// can come from the pool dirty.
func (m *Softmax) Gradient(params []float64, d *Dataset) (grad.Gradient, error) {
	if err := checkDims(m, params, d, m.InputDim, m.NumClasses); err != nil {
		return nil, err
	}
	C, D, n := m.NumClasses, m.InputDim, d.N()
	res := make([]float64, n*C)
	for i, x := range d.Features {
		r := res[i*C : (i+1)*C]
		m.logits(params, x, r)
		softmaxInto(r, r)
		r[int(d.Labels[i])] -= 1
	}
	g := grad.GetBuffer(m.Dim())
	if n == 0 {
		clear(g)
		return g, nil
	}
	xs := d.Features
	for c := 0; c < C; c++ {
		var bias float64
		for i := 0; i < n; i++ {
			bias += res[i*C+c]
		}
		g[C*D+c] = bias
		row := g[c*D : (c+1)*D]
		for i := 0; i < n; i += 2 {
			if i+1 < n {
				axpy2(row, res[i*C+c], res[(i+1)*C+c], xs[i], xs[i+1], i == 0)
			} else {
				axpy(row, res[i*C+c], xs[i], i == 0)
			}
		}
	}
	return g, nil
}

// axpy2 computes row = r0·x0 + r1·x1 (overwrite) or row += r0·x0 + r1·x1,
// adding left to right: one pass over the row for two samples. The loops are
// unrolled by hand because their bound is the loop overhead, not the memory.
func axpy2(row []float64, r0, r1 float64, x0, x1 []float64, overwrite bool) {
	n := len(row)
	x0, x1 = x0[:n], x1[:n]
	j := 0
	if overwrite {
		for ; j+4 <= n; j += 4 {
			row[j] = r0*x0[j] + r1*x1[j]
			row[j+1] = r0*x0[j+1] + r1*x1[j+1]
			row[j+2] = r0*x0[j+2] + r1*x1[j+2]
			row[j+3] = r0*x0[j+3] + r1*x1[j+3]
		}
		for ; j < n; j++ {
			row[j] = r0*x0[j] + r1*x1[j]
		}
		return
	}
	for ; j+4 <= n; j += 4 {
		row[j] = row[j] + r0*x0[j] + r1*x1[j]
		row[j+1] = row[j+1] + r0*x0[j+1] + r1*x1[j+1]
		row[j+2] = row[j+2] + r0*x0[j+2] + r1*x1[j+2]
		row[j+3] = row[j+3] + r0*x0[j+3] + r1*x1[j+3]
	}
	for ; j < n; j++ {
		row[j] = row[j] + r0*x0[j] + r1*x1[j]
	}
}

// axpy is axpy2 for the odd sample out: at most one pass per row.
func axpy(row []float64, r float64, x []float64, overwrite bool) {
	x = x[:len(row)]
	if overwrite {
		for j := range row {
			row[j] = r * x[j]
		}
		return
	}
	for j := range row {
		row[j] += r * x[j]
	}
}

// logits writes z_c = b_c + w_c·x for every class into out, four classes per
// pass over x. A short last block repeats the last class's row in its spare
// lanes.
func (m *Softmax) logits(params []float64, x []float64, out []float64) {
	C, D := m.NumClasses, m.InputDim
	x = x[:D]
	bias := params[C*D:]
	for c := 0; c < C; c += 4 {
		c1, c2, c3 := min(c+1, C-1), min(c+2, C-1), min(c+3, C-1)
		out[c], out[c1], out[c2], out[c3] = dot4(x,
			params[c*D:], params[c1*D:], params[c2*D:], params[c3*D:],
			bias[c], bias[c1], bias[c2], bias[c3])
	}
}

// dot4 returns s_i + w_i·x for four rows at once, one accumulator each: a
// row's sum still adds j = 0…len(x)−1 in order, so its value is the
// one-row-at-a-time loop's, but the four add chains overlap instead of each
// waiting out the add latency. It stays out of line: inlined into logits the
// row pointers no longer fit in registers and every iteration reloads two.
//
//go:noinline
func dot4(x, w0, w1, w2, w3 []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
	for j, xj := range x {
		s0 += w0[j] * xj
		s1 += w1[j] * xj
		s2 += w2[j] * xj
		s3 += w3[j] * xj
	}
	return s0, s1, s2, s3
}

// logSumExp computes log Σ e^{z_c} stably.
func logSumExp(z []float64) float64 {
	mx := z[0]
	for _, v := range z[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for _, v := range z {
		sum += math.Exp(v - mx)
	}
	return mx + math.Log(sum)
}

// softmaxInto writes softmax(z) into out.
func softmaxInto(z, out []float64) {
	mx := z[0]
	for _, v := range z[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range z {
		e := math.Exp(v - mx)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// Accuracy returns the fraction of samples whose argmax prediction matches
// the label.
func (m *Softmax) Accuracy(params []float64, d *Dataset) (float64, error) {
	if err := checkDims(m, params, d, m.InputDim, m.NumClasses); err != nil {
		return 0, err
	}
	if d.N() == 0 {
		return 0, ErrBadData
	}
	logits := make([]float64, m.NumClasses)
	correct := 0
	for i, x := range d.Features {
		m.logits(params, x, logits)
		best := 0
		for c, v := range logits {
			if v > logits[best] {
				best = c
			}
		}
		if best == int(d.Labels[i]) {
			correct++
		}
	}
	return float64(correct) / float64(d.N()), nil
}
