package ml

import (
	"fmt"
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
// computed first, so each class row of the result is then built in one go
// (classRow). Every element is written, so the buffer can come from the pool
// dirty.
func (m *Softmax) Gradient(params []float64, d *Dataset) (grad.Gradient, error) {
	if err := checkDims(m, params, d, m.InputDim, m.NumClasses); err != nil {
		return nil, err
	}
	C, D := m.NumClasses, m.InputDim
	res := make([]float64, d.N()*C)
	m.residuals(params, d, res)
	g := grad.GetBuffer(m.Dim())
	for c := 0; c < C; c++ {
		g[C*D+c] = classBias(res, c, C)
		classRow(g[c*D:(c+1)*D], res, d.Features, c, C)
	}
	return g, nil
}

// CodedGradient implements Coder. It builds dst one class row at a time,
// from blocks of up to four live partitions (those whose coefficient is not
// zero) in the order grad's encode kernel combines them, and never stores a
// partial: a partition of one or two samples enters its block as a term
// r0·x0 + r1·x1 evaluated in registers; any other partition's row is first
// built by classRow into a row of scratch. The terms are padded to the
// kernel's shape with −0, which adds exactly nothing: x + (−0) is x for every
// x, −0 and NaN included, so every element carries the bits EncodeInto makes
// of the Gradient partials. The scratch is sized by the data (the live
// partitions' residuals and biases, one row of D floats, and one more per
// partition of other than one or two samples) and comes from grad's pool.
func (m *Softmax) CodedGradient(dst grad.Gradient, params []float64, parts []*Dataset, coeffs []float64) error {
	for _, d := range parts {
		if err := checkDims(m, params, d, m.InputDim, m.NumClasses); err != nil {
			return err
		}
	}
	if len(coeffs) != len(parts) {
		return fmt.Errorf("%w: %d coefficients for %d partitions", grad.ErrDimension, len(coeffs), len(parts))
	}
	if len(dst) != m.Dim() {
		return fmt.Errorf("%w: coded gradient has dim %d, want %d", grad.ErrDimension, len(dst), m.Dim())
	}
	C, D := m.NumClasses, m.InputDim
	var live []int
	size := D
	for j, c := range coeffs {
		if c == 0 {
			continue
		}
		live = append(live, j)
		size += (parts[j].N() + 1) * C
		if n := parts[j].N(); n != 1 && n != 2 {
			size += D
		}
	}
	if len(live) == 0 {
		clear(dst)
		return nil
	}
	scratch := grad.GetBuffer(size)
	defer grad.PutBuffer(scratch)
	free := []float64(scratch)
	take := func(n int) []float64 {
		s := free[:n:n]
		free = free[n:]
		return s
	}
	negZero := take(D)
	for i := range negZero {
		negZero[i] = math.Copysign(0, -1)
	}
	pad := term{1, 1, 1, negZero, negZero}
	cs := make([]float64, len(live))
	res := make([][]float64, len(live))
	rows := make([][]float64, len(live))
	biases := make([]grad.Gradient, len(live))
	for l, j := range live {
		cs[l] = coeffs[j]
		res[l] = take(parts[j].N() * C)
		m.residuals(params, parts[j], res[l])
		biases[l] = take(C)
		if n := parts[j].N(); n != 1 && n != 2 {
			rows[l] = take(D)
		}
	}
	for c := 0; c < C; c++ {
		for b := 0; b < len(live); b += 4 {
			var blk [4]term
			for i := range blk {
				l := b + i
				if l >= len(live) {
					blk[i] = pad
					continue
				}
				xs, r := parts[live[l]].Features, res[l]
				biases[l][c] = classBias(r, c, C)
				switch len(xs) {
				case 1:
					blk[i] = term{cs[l], r[c], 1, xs[0], negZero}
				case 2:
					blk[i] = term{cs[l], r[c], r[C+c], xs[0], xs[1]}
				default:
					classRow(rows[l], r, xs, c, C)
					blk[i] = term{cs[l], 1, 1, rows[l], negZero}
				}
			}
			coded4(dst[c*D:(c+1)*D], &blk, b == 0)
		}
	}
	return grad.EncodeInto(dst[C*D:], cs, biases)
}

// term is one partition's share of a coded class row: c·(r0·x0 + r1·x1),
// where x0 and x1 are its two samples (or its row and −0, or −0 twice).
type term struct {
	c, r0, r1 float64
	x0, x1    []float64
}

// coded4 writes (overwrite) or adds into row (c0·p0 + c1·p1) + (c2·p2 +
// c3·p3), where pⱼ = r0ⱼ·x0ⱼ + r1ⱼ·x1ⱼ: grad's four-input encode block over
// four partitions' two-sample rows, the rows never stored. pⱼ is the value
// axpy2 would have stored, so the sums are EncodeInto's, bit for bit.
func coded4(row []float64, t *[4]term, overwrite bool) {
	n := len(row)
	c0, c1, c2, c3 := t[0].c, t[1].c, t[2].c, t[3].c
	r00, r01, r10, r11 := t[0].r0, t[0].r1, t[1].r0, t[1].r1
	r20, r21, r30, r31 := t[2].r0, t[2].r1, t[3].r0, t[3].r1
	x00, x01, x10, x11 := t[0].x0[:n], t[0].x1[:n], t[1].x0[:n], t[1].x1[:n]
	x20, x21, x30, x31 := t[2].x0[:n], t[2].x1[:n], t[3].x0[:n], t[3].x1[:n]
	if overwrite {
		for j := range row {
			p0 := r00*x00[j] + r01*x01[j]
			p1 := r10*x10[j] + r11*x11[j]
			p2 := r20*x20[j] + r21*x21[j]
			p3 := r30*x30[j] + r31*x31[j]
			row[j] = (c0*p0 + c1*p1) + (c2*p2 + c3*p3)
		}
		return
	}
	for j := range row {
		p0 := r00*x00[j] + r01*x01[j]
		p1 := r10*x10[j] + r11*x11[j]
		p2 := r20*x20[j] + r21*x21[j]
		p3 := r30*x30[j] + r31*x31[j]
		row[j] += (c0*p0 + c1*p1) + (c2*p2 + c3*p3)
	}
}

// residuals writes every sample's p_c − 1{c=y} into res, C per sample.
func (m *Softmax) residuals(params []float64, d *Dataset, res []float64) {
	C := m.NumClasses
	for i, x := range d.Features {
		r := res[i*C : (i+1)*C]
		m.logits(params, x, r)
		softmaxInto(r, r)
		r[int(d.Labels[i])] -= 1
	}
}

// classBias returns class c's bias gradient: its residuals summed in sample
// order.
func classBias(res []float64, c, C int) float64 {
	var bias float64
	for i := c; i < len(res); i += C {
		bias += res[i]
	}
	return bias
}

// classRow writes class c's weight-gradient row Σᵢ res_ic·xᵢ into row: the
// first two samples fused into one overwriting pass, later pairs accumulated
// in sample order, which keeps every element's sum in the order a
// sample-by-sample update adds it. No samples clear the row.
func classRow(row, res []float64, xs [][]float64, c, C int) {
	n := len(xs)
	if n == 0 {
		clear(row)
		return
	}
	for i := 0; i < n; i += 2 {
		if i+1 < n {
			axpy2(row, res[i*C+c], res[(i+1)*C+c], xs[i], xs[i+1], i == 0)
		} else {
			axpy(row, res[i*C+c], xs[i], i == 0)
		}
	}
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

// logits writes z_c = b_c + w_c·x for every class into out, each class
// computed once. A pass over x is bounded by the add latency of one row's
// sum, not by the rows it carries, up to about four; so the classes are split
// as evenly as they go into the fewest passes of at most five rows (C = 10 is
// two passes of five, C = 7 a pass of four and one of three; a lone class
// takes the plain loop).
func (m *Softmax) logits(params []float64, x []float64, out []float64) {
	C, D := m.NumClasses, m.InputDim
	x = x[:D]
	bias := params[C*D:]
	w := func(c int) []float64 { return params[c*D:] }
	for c, left := 0, (C+4)/5; left > 0; left-- {
		rows := (C - c) / left
		switch rows {
		case 5:
			out[c], out[c+1], out[c+2], out[c+3], out[c+4] = dot5(x, w(c), w(c+1), w(c+2), w(c+3), w(c+4),
				bias[c], bias[c+1], bias[c+2], bias[c+3], bias[c+4])
		case 4:
			out[c], out[c+1], out[c+2], out[c+3] = dot4(x, w(c), w(c+1), w(c+2), w(c+3),
				bias[c], bias[c+1], bias[c+2], bias[c+3])
		case 3:
			out[c], out[c+1], out[c+2] = dot3(x, w(c), w(c+1), w(c+2), bias[c], bias[c+1], bias[c+2])
		case 2:
			out[c], out[c+1] = dot2(x, w(c), w(c+1), bias[c], bias[c+1])
		default:
			s, row := bias[c], w(c)[:D]
			for j, xj := range x {
				s += row[j] * xj
			}
			out[c] = s
		}
		c += rows
	}
}

// dot5 returns s_i + w_i·x for five rows at once, one accumulator each: a
// row's sum still adds j = 0…len(x)−1 in order, so its value is the
// one-row-at-a-time loop's, but the add chains overlap instead of each
// waiting out the add latency. dot4, dot3 and dot2 are the same over fewer
// rows. They stay out of line: inlined into logits the row pointers no longer
// fit in registers and every iteration reloads some.
//
//go:noinline
func dot5(x, w0, w1, w2, w3, w4 []float64, s0, s1, s2, s3, s4 float64) (float64, float64, float64, float64, float64) {
	w0, w1, w2, w3, w4 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)], w4[:len(x)]
	for j, xj := range x {
		s0 += w0[j] * xj
		s1 += w1[j] * xj
		s2 += w2[j] * xj
		s3 += w3[j] * xj
		s4 += w4[j] * xj
	}
	return s0, s1, s2, s3, s4
}

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

//go:noinline
func dot3(x, w0, w1, w2 []float64, s0, s1, s2 float64) (float64, float64, float64) {
	w0, w1, w2 = w0[:len(x)], w1[:len(x)], w2[:len(x)]
	for j, xj := range x {
		s0 += w0[j] * xj
		s1 += w1[j] * xj
		s2 += w2[j] * xj
	}
	return s0, s1, s2
}

//go:noinline
func dot2(x, w0, w1 []float64, s0, s1 float64) (float64, float64) {
	w0, w1 = w0[:len(x)], w1[:len(x)]
	for j, xj := range x {
		s0 += w0[j] * xj
		s1 += w1[j] * xj
	}
	return s0, s1
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
