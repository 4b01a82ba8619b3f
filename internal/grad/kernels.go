package grad

import (
	"fmt"
	"sync"
)

// This file holds the allocation-free kernel layer: in-place EncodeInto /
// CombineInto / SumInto variants of the package's arithmetic, the root's
// one-pass DecodeMeanInto / SumMeanInto, the two kernels behind them (one
// linear combination, one plain sum) and a freelist of gradient buffers. The
// kernels run once over the whole vector on the calling goroutine at every
// dimension: on a small shared box, waking a helper goroutine costs as much
// as the chunk it would take. The exported Encode / Combine / Sum wrappers in
// grad.go delegate here, so every caller gets the fused kernels;
// steady-state callers that manage their own buffers get zero-alloc
// encode/combine.

// tileLen is the run of elements SumMeanInto finishes at a time: every input,
// then the scale and the finite check, while the tile of dst is still in L1
// (1024 float64s are 8 KB).
const tileLen = 1024

// EncodeInto forms the coded gradient Σ_j coeff[j]·partials[j] in dst,
// overwriting its contents. dst's length fixes the gradient dimension; every
// partial must match it. dst must not alias any partial. It allocates nothing
// for up to 32 live coefficients.
func EncodeInto(dst Gradient, coeff []float64, partials []Gradient) error {
	if len(coeff) != len(partials) {
		return fmt.Errorf("%w: %d coefficients for %d partials", ErrDimension, len(coeff), len(partials))
	}
	if len(partials) == 0 {
		return fmt.Errorf("%w: no partial gradients", ErrDimension)
	}
	for j, p := range partials {
		if len(p) != len(dst) {
			return fmt.Errorf("%w: partial %d has dim %d, want %d", ErrDimension, j, len(p), len(dst))
		}
	}
	// x·1 == x for every x, so the kernel at α = 1 is the plain combination;
	// a coded gradient's finiteness is for the decode to check.
	lincomb(dst, 1, coeff, partials)
	return nil
}

// CombineInto recombines coded gradients with decoding coefficients into dst,
// overwriting its contents: dst = Σ_i coeffs[i]·coded[i]. Entries with a zero
// coefficient may be nil (stragglers whose results never arrived); a non-zero
// coefficient with a nil or mis-sized gradient is an error. dst must not
// alias any coded gradient. It is DecodeMeanInto at α = 1, and allocates
// nothing for up to 32 live coefficients.
func CombineInto(dst Gradient, coeffs []float64, coded []Gradient) error {
	_, err := DecodeMeanInto(dst, 1, coeffs, coded)
	return err
}

// DecodeMeanInto is the root's decode pass: it writes the mean gradient
// dst = alpha·Σ_i coeffs[i]·coded[i], overwriting its contents, and reports
// whether every element of it is finite. The result is CombineInto, then
// Scale(alpha), then !InfOrNaN, bit for bit, in one pass over memory: the
// scale and the x − x check ride the last block of four inputs. The inputs
// are CombineInto's, and so is its allocation bound.
func DecodeMeanInto(dst Gradient, alpha float64, coeffs []float64, coded []Gradient) (bool, error) {
	if len(coeffs) != len(coded) {
		return false, fmt.Errorf("%w: %d coefficients for %d coded gradients", ErrDimension, len(coeffs), len(coded))
	}
	for i, c := range coeffs {
		if c == 0 {
			continue
		}
		if coded[i] == nil {
			return false, fmt.Errorf("%w: non-zero coefficient %g for missing gradient %d", ErrDimension, c, i)
		}
		if len(coded[i]) != len(dst) {
			return false, fmt.Errorf("%w: coded %d has dim %d, want %d", ErrDimension, i, len(coded[i]), len(dst))
		}
	}
	return lincomb(dst, alpha, coeffs, coded), nil
}

// SumInto writes the plain sum of gradients into dst, overwriting its
// contents. Every gradient must match dst's length. dst must not alias any
// input gradient. It is SumMeanInto at α = 1, and never allocates.
func SumInto(dst Gradient, gs []Gradient) error {
	_, err := SumMeanInto(dst, 1, gs)
	return err
}

// SumMeanInto writes alpha times the plain sum of gradients into dst,
// overwriting its contents, and reports whether every element of it is
// finite: SumInto, then Scale(alpha), then !InfOrNaN, bit for bit, in one
// pass over memory. The inputs are SumInto's. It never allocates.
func SumMeanInto(dst Gradient, alpha float64, gs []Gradient) (bool, error) {
	if len(gs) == 0 {
		return false, fmt.Errorf("%w: empty sum", ErrDimension)
	}
	for i, g := range gs {
		if len(g) != len(dst) {
			return false, fmt.Errorf("%w: gradient %d has dim %d, want %d", ErrDimension, i, len(g), len(dst))
		}
	}
	return sumKernel(dst, alpha, gs), nil
}

// lincomb writes alpha·Σ_j coeff[j]·vecs[j] into dst (skipping zero
// coefficients) and reports whether every element of the result is finite.
// Inputs are assumed validated: len(vecs[j]) == len(dst) for every live j.
// The live terms are taken in blocks of four, so each element of dst is
// written once and re-read at most once per four inputs — the
// axpy-per-input formulation re-reads and re-writes dst for every input,
// which is what made the scalar loops memory-bound. Every block but the last
// is a fused4; the last block, the scale and the check share one loop
// (lastBlock).
func lincomb(dst []float64, alpha float64, coeff []float64, vecs []Gradient) bool {
	n := len(dst)
	var cbuf [32]float64
	var vbuf [32][]float64
	cs, vs := liveTerms(cbuf[:0], vbuf[:0], coeff, vecs)
	last := 0 // the last block's first term
	if len(cs) > 0 {
		last = (len(cs) - 1) / 4 * 4
	}
	for b := 0; b < last; b += 4 {
		fused4(dst, cs[b], cs[b+1], cs[b+2], cs[b+3], vs[b][:n], vs[b+1][:n], vs[b+2][:n], vs[b+3][:n], b == 0)
	}
	return lastBlock(dst, cs[last:], vs[last:], alpha, last == 0) == 0
}

// liveTerms appends the non-zero coefficients to cs and their vectors to vs.
// Callers pass stack scratch for the common small fan-in; beyond its
// capacity append allocates.
func liveTerms(cs []float64, vs [][]float64, coeff []float64, vecs []Gradient) ([]float64, [][]float64) {
	for j, c := range coeff {
		if c == 0 {
			continue
		}
		cs = append(cs, c)
		vs = append(vs, vecs[j])
	}
	return cs, vs
}

// lastBlock ends lincomb with its last block of at most four live terms:
// dst = (dst +) the block's sum, in fused4's order, times alpha, each element
// written once. It returns the sum of x − x over the results, InfOrNaN's
// test: zero exactly when every one is finite. With no terms dst is 0·alpha.
func lastBlock(dst []float64, cs []float64, vs [][]float64, alpha float64, overwrite bool) float64 {
	n := len(dst)
	var check float64
	switch len(cs) {
	case 4:
		c0, c1, c2, c3 := cs[0], cs[1], cs[2], cs[3]
		x0, x1, x2, x3 := vs[0][:n], vs[1][:n], vs[2][:n], vs[3][:n]
		if overwrite {
			for i := range dst {
				v := ((c0*x0[i] + c1*x1[i]) + (c2*x2[i] + c3*x3[i])) * alpha
				dst[i] = v
				check += v - v
			}
		} else {
			for i := range dst {
				v := (dst[i] + ((c0*x0[i] + c1*x1[i]) + (c2*x2[i] + c3*x3[i]))) * alpha
				dst[i] = v
				check += v - v
			}
		}
	case 3:
		c0, c1, c2 := cs[0], cs[1], cs[2]
		x0, x1, x2 := vs[0][:n], vs[1][:n], vs[2][:n]
		if overwrite {
			for i := range dst {
				v := ((c0*x0[i] + c1*x1[i]) + c2*x2[i]) * alpha
				dst[i] = v
				check += v - v
			}
		} else {
			for i := range dst {
				v := (dst[i] + ((c0*x0[i] + c1*x1[i]) + c2*x2[i])) * alpha
				dst[i] = v
				check += v - v
			}
		}
	case 2:
		c0, c1 := cs[0], cs[1]
		x0, x1 := vs[0][:n], vs[1][:n]
		if overwrite {
			for i := range dst {
				v := (c0*x0[i] + c1*x1[i]) * alpha
				dst[i] = v
				check += v - v
			}
		} else {
			for i := range dst {
				v := (dst[i] + (c0*x0[i] + c1*x1[i])) * alpha
				dst[i] = v
				check += v - v
			}
		}
	case 1:
		c0, x0 := cs[0], vs[0][:n]
		if overwrite {
			for i := range dst {
				v := c0 * x0[i] * alpha
				dst[i] = v
				check += v - v
			}
		} else {
			for i := range dst {
				v := (dst[i] + c0*x0[i]) * alpha
				dst[i] = v
				check += v - v
			}
		}
	case 0:
		var zero float64
		v := zero * alpha
		for i := range dst {
			dst[i] = v
		}
		check = v - v
	}
	return check
}

// scaleCheck multiplies v by alpha in place and returns the sum of x − x over
// the products: zero exactly when every product is finite, NaN otherwise
// (InfOrNaN's test, with the same four running sums).
func scaleCheck(v []float64, alpha float64) float64 {
	var a0, a1, a2, a3 float64
	for ; len(v) >= 4; v = v[4:] {
		x0, x1, x2, x3 := v[0]*alpha, v[1]*alpha, v[2]*alpha, v[3]*alpha
		v[0], v[1], v[2], v[3] = x0, x1, x2, x3
		a0 += x0 - x0
		a1 += x1 - x1
		a2 += x2 - x2
		a3 += x3 - x3
	}
	for i, x := range v {
		x *= alpha
		v[i] = x
		a0 += x - x
	}
	return a0 + a1 + a2 + a3
}

// fused4 computes one four-input block: dst = (or +=) c0·x0 + c1·x1 + c2·x2
// + c3·x3. The element unroll and the paired products keep four independent
// multiply chains in flight, which is what bounds the scalar loop.
func fused4(dst []float64, c0, c1, c2, c3 float64, x0, x1, x2, x3 []float64, overwrite bool) {
	n := len(dst)
	i := 0
	if overwrite {
		for ; i+4 <= n; i += 4 {
			a0 := c0*x0[i] + c1*x1[i]
			b0 := c2*x2[i] + c3*x3[i]
			a1 := c0*x0[i+1] + c1*x1[i+1]
			b1 := c2*x2[i+1] + c3*x3[i+1]
			a2 := c0*x0[i+2] + c1*x1[i+2]
			b2 := c2*x2[i+2] + c3*x3[i+2]
			a3 := c0*x0[i+3] + c1*x1[i+3]
			b3 := c2*x2[i+3] + c3*x3[i+3]
			dst[i] = a0 + b0
			dst[i+1] = a1 + b1
			dst[i+2] = a2 + b2
			dst[i+3] = a3 + b3
		}
		for ; i < n; i++ {
			dst[i] = (c0*x0[i] + c1*x1[i]) + (c2*x2[i] + c3*x3[i])
		}
		return
	}
	for ; i+4 <= n; i += 4 {
		a0 := c0*x0[i] + c1*x1[i]
		b0 := c2*x2[i] + c3*x3[i]
		a1 := c0*x0[i+1] + c1*x1[i+1]
		b1 := c2*x2[i+1] + c3*x3[i+1]
		a2 := c0*x0[i+2] + c1*x1[i+2]
		b2 := c2*x2[i+2] + c3*x3[i+2]
		a3 := c0*x0[i+3] + c1*x1[i+3]
		b3 := c2*x2[i+3] + c3*x3[i+3]
		dst[i] += a0 + b0
		dst[i+1] += a1 + b1
		dst[i+2] += a2 + b2
		dst[i+3] += a3 + b3
	}
	for ; i < n; i++ {
		dst[i] += (c0*x0[i] + c1*x1[i]) + (c2*x2[i] + c3*x3[i])
	}
}

// sumKernel writes alpha·Σ vecs into dst a tile at a time, with the same
// blocking as lincomb but without the multiplies, and reports whether the
// result is finite.
func sumKernel(dst []float64, alpha float64, vecs []Gradient) bool {
	var check float64
	for lo := 0; lo < len(dst); lo += tileLen {
		t := dst[lo:min(lo+tileLen, len(dst))]
		sumTile(t, vecs, lo)
		check += scaleCheck(t, alpha)
	}
	return check == 0
}

// sumTile writes Σ vecs into dst: the first vector copied, the next in blocks
// of four added as (x0 + x1) + (x2 + x3), the rest one at a time. off is the
// tile's offset into the full vectors.
func sumTile(dst []float64, vecs []Gradient, off int) {
	n := len(dst)
	x0 := vecs[0][off : off+n]
	copy(dst, x0)
	rest := vecs[1:]
	for len(rest) >= 4 {
		x0, x1 := rest[0][off:off+n], rest[1][off:off+n]
		x2, x3 := rest[2][off:off+n], rest[3][off:off+n]
		for i := range dst {
			dst[i] += (x0[i] + x1[i]) + (x2[i] + x3[i])
		}
		rest = rest[4:]
	}
	for _, v := range rest {
		x := v[off : off+n]
		for i := range dst {
			dst[i] += x[i]
		}
	}
}

// bufPool recycles gradient buffers between iterations so steady-state
// encode/combine allocates nothing. A bounded freelist (rather than a
// sync.Pool) keeps Get/Put themselves allocation-free: sync.Pool's Put boxes
// the slice header on every call.
var bufPool = struct {
	mu   sync.Mutex
	bufs [][]float64
}{}

// maxPooledBuffers bounds the freelist; beyond it PutBuffer drops buffers on
// the floor for the GC. 64 buffers cover a master combining a large cluster's
// coded gradients concurrently.
const maxPooledBuffers = 64

// GetBuffer returns a gradient of length dim from the pool. Its contents are
// unspecified — callers are expected to overwrite it (the *Into kernels do).
// Return it with PutBuffer when done. The pool is also the transport's
// receive allocator, so it holds a mix of sizes (full vectors, uplink
// chunks): a pooled buffer is reused only for requests of at least half its
// capacity, so a small chunk never pins a full-size vector.
func GetBuffer(dim int) Gradient {
	bufPool.mu.Lock()
	for i := len(bufPool.bufs) - 1; i >= 0; i-- {
		if b := bufPool.bufs[i]; cap(b) >= dim && cap(b)/2 <= dim {
			last := len(bufPool.bufs) - 1
			bufPool.bufs[i] = bufPool.bufs[last]
			bufPool.bufs[last] = nil
			bufPool.bufs = bufPool.bufs[:last]
			bufPool.mu.Unlock()
			return Gradient(b[:dim])
		}
	}
	bufPool.mu.Unlock()
	return make(Gradient, dim)
}

// PutBuffer recycles a gradient previously obtained from GetBuffer (or any
// caller-owned gradient that is no longer referenced). The caller must not
// use g afterwards.
func PutBuffer(g Gradient) {
	if g == nil {
		return
	}
	bufPool.mu.Lock()
	if len(bufPool.bufs) < maxPooledBuffers {
		bufPool.bufs = append(bufPool.bufs, []float64(g))
	}
	bufPool.mu.Unlock()
}
