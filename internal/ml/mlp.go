package ml

import (
	"math"
	"math/rand"

	"github.com/hetgc/hetgc/internal/grad"
)

// MLP is a one-hidden-layer ReLU network with softmax cross-entropy output —
// the deep-model stand-in for the paper's AlexNet/ResNet34 workloads (the
// coding layer only sees its flat gradient vector). Parameter layout:
// W1 (hidden×dim), b1 (hidden), W2 (classes×hidden), b2 (classes).
type MLP struct {
	// InputDim is the feature dimension.
	InputDim int
	// Hidden is the hidden layer width.
	Hidden int
	// NumClasses is the output class count.
	NumClasses int
}

// Dim implements Model.
func (m *MLP) Dim() int {
	return m.Hidden*m.InputDim + m.Hidden + m.NumClasses*m.Hidden + m.NumClasses
}

// offsets returns the parameter segment offsets (w1, b1, w2, b2).
func (m *MLP) offsets() (w1, b1, w2, b2 int) {
	w1 = 0
	b1 = m.Hidden * m.InputDim
	w2 = b1 + m.Hidden
	b2 = w2 + m.NumClasses*m.Hidden
	return
}

// InitParams implements Model with He-style scaled Gaussian weights.
func (m *MLP) InitParams(rng *rand.Rand) []float64 {
	params := make([]float64, m.Dim())
	if rng == nil {
		return params
	}
	w1, b1, w2, b2 := m.offsets()
	scale1 := math.Sqrt(2 / float64(m.InputDim))
	for i := w1; i < b1; i++ {
		params[i] = rng.NormFloat64() * scale1
	}
	scale2 := math.Sqrt(2 / float64(m.Hidden))
	for i := w2; i < b2; i++ {
		params[i] = rng.NormFloat64() * scale2
	}
	return params
}

// Loss implements Model.
func (m *MLP) Loss(params []float64, d *Dataset) (float64, error) {
	if err := checkDims(m, params, d, m.InputDim, m.NumClasses); err != nil {
		return 0, err
	}
	hidden := make([]float64, m.Hidden)
	logits := make([]float64, m.NumClasses)
	var sum float64
	for i, x := range d.Features {
		m.forward(params, x, hidden, logits)
		sum += logSumExp(logits) - logits[int(d.Labels[i])]
	}
	return sum, nil
}

// Gradient implements Model via standard backpropagation.
func (m *MLP) Gradient(params []float64, d *Dataset) (grad.Gradient, error) {
	if err := checkDims(m, params, d, m.InputDim, m.NumClasses); err != nil {
		return nil, err
	}
	w1Off, b1Off, w2Off, b2Off := m.offsets()
	g := make(grad.Gradient, m.Dim())
	hidden := make([]float64, m.Hidden)
	logits := make([]float64, m.NumClasses)
	probs := make([]float64, m.NumClasses)
	dHidden := make([]float64, m.Hidden)
	for i, x := range d.Features {
		m.forward(params, x, hidden, logits)
		softmaxInto(logits, probs)
		y := int(d.Labels[i])

		// Output layer: dL/dz2_c = p_c − 1{c=y}.
		for h := range dHidden {
			dHidden[h] = 0
		}
		for c := 0; c < m.NumClasses; c++ {
			r := probs[c]
			if c == y {
				r -= 1
			}
			w2row := params[w2Off+c*m.Hidden : w2Off+(c+1)*m.Hidden]
			g2row := g[w2Off+c*m.Hidden : w2Off+(c+1)*m.Hidden]
			for h, a := range hidden {
				g2row[h] += r * a
				dHidden[h] += r * w2row[h]
			}
			g[b2Off+c] += r
		}
		// Hidden layer: ReLU gate.
		for h := 0; h < m.Hidden; h++ {
			if hidden[h] <= 0 {
				continue
			}
			dh := dHidden[h]
			g1row := g[w1Off+h*m.InputDim : w1Off+(h+1)*m.InputDim]
			for j, xj := range x {
				g1row[j] += dh * xj
			}
			g[b1Off+h] += dh
		}
	}
	return g, nil
}

// forward computes hidden activations (post-ReLU) and output logits.
func (m *MLP) forward(params []float64, x []float64, hidden, logits []float64) {
	w1Off, b1Off, w2Off, b2Off := m.offsets()
	for h := 0; h < m.Hidden; h++ {
		s := params[b1Off+h]
		row := params[w1Off+h*m.InputDim : w1Off+(h+1)*m.InputDim]
		for j, xj := range x {
			s += row[j] * xj
		}
		if s < 0 {
			s = 0
		}
		hidden[h] = s
	}
	for c := 0; c < m.NumClasses; c++ {
		s := params[b2Off+c]
		row := params[w2Off+c*m.Hidden : w2Off+(c+1)*m.Hidden]
		for h, a := range hidden {
			s += row[h] * a
		}
		logits[c] = s
	}
}
