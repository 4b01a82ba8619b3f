package grad

import (
	"fmt"
	"runtime"
	"sync"
)

// This file holds the allocation-free kernel layer: in-place EncodeInto /
// CombineInto / SumInto variants of the package's arithmetic, the fused
// linear-combination kernels behind them, a sync.Pool of gradient buffers,
// and chunked goroutine fan-out for large dimensions. The exported Encode /
// Combine / Sum wrappers in grad.go delegate here, so every caller gets the
// fused kernels; steady-state callers that manage their own buffers get
// zero-alloc encode/combine.

// parallelMinDim is the vector length above which the kernels fan out across
// goroutines (when GOMAXPROCS allows). Below it the spawn overhead dominates.
const parallelMinDim = 1 << 15

// maxFan bounds the number of worker goroutines per kernel call.
const maxFan = 16

// EncodeInto forms the coded gradient Σ_j coeff[j]·partials[j] in dst,
// overwriting its contents. dst's length fixes the gradient dimension; every
// partial must match it. dst must not alias any partial. It never allocates
// on the serial path.
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
	lincomb(dst, coeff, partials)
	return nil
}

// CombineInto recombines coded gradients with decoding coefficients into dst,
// overwriting its contents: dst = Σ_i coeffs[i]·coded[i]. Entries with a zero
// coefficient may be nil (stragglers whose results never arrived); a non-zero
// coefficient with a nil or mis-sized gradient is an error. dst must not
// alias any coded gradient. It never allocates on the serial path.
func CombineInto(dst Gradient, coeffs []float64, coded []Gradient) error {
	if len(coeffs) != len(coded) {
		return fmt.Errorf("%w: %d coefficients for %d coded gradients", ErrDimension, len(coeffs), len(coded))
	}
	for i, c := range coeffs {
		if c == 0 {
			continue
		}
		if coded[i] == nil {
			return fmt.Errorf("%w: non-zero coefficient %g for missing gradient %d", ErrDimension, c, i)
		}
		if len(coded[i]) != len(dst) {
			return fmt.Errorf("%w: coded %d has dim %d, want %d", ErrDimension, i, len(coded[i]), len(dst))
		}
	}
	lincomb(dst, coeffs, coded)
	return nil
}

// SumInto writes the plain sum of gradients into dst, overwriting its
// contents. Every gradient must match dst's length. dst must not alias any
// input gradient. It never allocates on the serial path.
func SumInto(dst Gradient, gs []Gradient) error {
	if len(gs) == 0 {
		return fmt.Errorf("%w: empty sum", ErrDimension)
	}
	for i, g := range gs {
		if len(g) != len(dst) {
			return fmt.Errorf("%w: gradient %d has dim %d, want %d", ErrDimension, i, len(g), len(dst))
		}
	}
	sumKernel(dst, gs)
	return nil
}

// lincomb writes Σ_j coeff[j]·vecs[j] into dst (skipping zero coefficients),
// fanning out across goroutines for large dimensions. Inputs are assumed
// validated: len(vecs[j]) == len(dst) for all j.
func lincomb(dst []float64, coeff []float64, vecs []Gradient) {
	if fan := fanout(len(dst)); fan > 1 {
		parallelChunks(len(dst), fan, func(lo, hi int) {
			lincombChunk(dst[lo:hi], coeff, vecs, lo)
		})
		return
	}
	lincombChunk(dst, coeff, vecs, 0)
}

// lincombChunk computes one chunk of the fused linear combination. off is the
// chunk's offset into the full vectors. The j-loop is blocked in groups of
// four so each element of dst is written once and re-read at most once per
// four inputs — the axpy-per-input formulation re-reads and re-writes dst for
// every input, which is what made the scalar loops memory-bound.
func lincombChunk(dst []float64, coeff []float64, vecs []Gradient, off int) {
	n := len(dst)
	// Gather the non-zero terms (bounded scratch on the stack for the common
	// small fan-in; falls back to allocation only beyond 32 inputs).
	var cbuf [32]float64
	var vbuf [32][]float64
	cs, vs := cbuf[:0], vbuf[:0]
	for j, c := range coeff {
		if c == 0 {
			continue
		}
		cs = append(cs, c)
		vs = append(vs, vecs[j][off:off+n])
	}
	if len(cs) == 0 {
		clear(dst)
		return
	}
	// First block overwrites dst, later blocks accumulate.
	first := true
	for len(cs) >= 4 {
		fused4(dst, cs[0], cs[1], cs[2], cs[3], vs[0][:n], vs[1][:n], vs[2][:n], vs[3][:n], first)
		first = false
		cs, vs = cs[4:], vs[4:]
	}
	switch len(cs) {
	case 3:
		c0, c1, c2 := cs[0], cs[1], cs[2]
		x0, x1, x2 := vs[0][:n], vs[1][:n], vs[2][:n]
		if first {
			for i := range dst {
				dst[i] = (c0*x0[i] + c1*x1[i]) + c2*x2[i]
			}
		} else {
			for i := range dst {
				dst[i] += (c0*x0[i] + c1*x1[i]) + c2*x2[i]
			}
		}
	case 2:
		c0, c1 := cs[0], cs[1]
		x0, x1 := vs[0][:n], vs[1][:n]
		if first {
			for i := range dst {
				dst[i] = c0*x0[i] + c1*x1[i]
			}
		} else {
			for i := range dst {
				dst[i] += c0*x0[i] + c1*x1[i]
			}
		}
	case 1:
		c0, x0 := cs[0], vs[0][:n]
		if first {
			for i := range dst {
				dst[i] = c0 * x0[i]
			}
		} else {
			for i := range dst {
				dst[i] += c0 * x0[i]
			}
		}
	case 0:
		if first {
			clear(dst)
		}
	}
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

// sumKernel writes Σ vecs into dst with the same blocking as lincombChunk
// but without the multiplies.
func sumKernel(dst []float64, vecs []Gradient) {
	if fan := fanout(len(dst)); fan > 1 {
		parallelChunks(len(dst), fan, func(lo, hi int) {
			sumChunk(dst[lo:hi], vecs, lo)
		})
		return
	}
	sumChunk(dst, vecs, 0)
}

func sumChunk(dst []float64, vecs []Gradient, off int) {
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

// fanout picks the goroutine count for a kernel over dim elements.
func fanout(dim int) int {
	if dim < parallelMinDim {
		return 1
	}
	fan := runtime.GOMAXPROCS(0)
	if fan > maxFan {
		fan = maxFan
	}
	if want := dim / (parallelMinDim / 2); want < fan {
		fan = want
	}
	if fan < 1 {
		fan = 1
	}
	return fan
}

// parallelChunks splits [0,n) into fan contiguous chunks and runs body on
// each from its own goroutine, returning when all complete.
func parallelChunks(n, fan int, body func(lo, hi int)) {
	var wg sync.WaitGroup
	chunk := (n + fan - 1) / fan
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
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
