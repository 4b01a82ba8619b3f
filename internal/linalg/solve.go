package linalg

import (
	"fmt"
	"math"
	"sync"
)

// The solvers below run Gaussian elimination directly on raw row-major
// slices borrowed from a sync.Pool, rather than through per-element At/Set
// calls on freshly cloned matrices: the decoders call them on every cache
// miss, so the work matrices are the pipeline's dominant transient
// allocation.

// workPool recycles elimination work buffers. Contents are unspecified;
// borrowers must fully overwrite the region they use.
var workPool = sync.Pool{New: func() any { return new([]float64) }}

// getWork borrows a length-n scratch slice with unspecified contents.
func getWork(n int) []float64 {
	p := workPool.Get().(*[]float64)
	if cap(*p) >= n {
		return (*p)[:n]
	}
	workPool.Put(p)
	return make([]float64, n)
}

// putWork returns a scratch slice to the pool.
func putWork(buf []float64) {
	workPool.Put(&buf)
}

// Solve solves the square linear system A·x = b by Gaussian elimination with
// partial pivoting. A and b are not modified. Returns ErrSingular when A is
// numerically singular.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Solve needs square matrix, got %dx%d", ErrShape, a.rows, a.cols)
	}
	if a.rows != len(b) {
		return nil, fmt.Errorf("%w: Solve rhs length %d != %d", ErrShape, len(b), a.rows)
	}
	n := a.rows
	work := getWork(n * n)
	defer putWork(work)
	copy(work, a.data)
	x := make([]float64, n)
	copy(x, b)

	tol := pivotTolSlice(work, n, n)
	for col := 0; col < n; col++ {
		// Partial pivoting: pick the largest remaining entry in this column.
		pivot := col
		pmax := math.Abs(work[col*n+col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(work[r*n+col]); a > pmax {
				pmax, pivot = a, r
			}
		}
		if pmax <= tol {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRowSlices(work, n, pivot, col)
			x[pivot], x[col] = x[col], x[pivot]
		}
		crow := work[col*n : col*n+n]
		pv := crow[col]
		for r := col + 1; r < n; r++ {
			rrow := work[r*n : r*n+n]
			f := rrow[col] / pv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				rrow[c] -= f * crow[c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		irow := work[i*n : i*n+n]
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= irow[j] * x[j]
		}
		x[i] = sum / irow[i]
	}
	return x, nil
}

// Inverse returns the inverse of a square matrix, or ErrSingular.
func Inverse(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Inverse needs square matrix, got %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	inv := NewMatrix(n, n)
	// Solve A·x = e_j for each basis vector. n is tiny in this codebase, so
	// repeated elimination is acceptable and keeps the code simple.
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := Solve(a, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// Rank returns the numerical rank of a, using Gaussian elimination with full
// column scanning and the given tolerance (DefaultTol scaled by magnitude
// when tol <= 0).
func Rank(a *Matrix, tol float64) int {
	rows, cols := a.rows, a.cols
	work := getWork(rows * cols)
	defer putWork(work)
	copy(work, a.data)
	if tol <= 0 {
		tol = pivotTolSlice(work, rows, cols)
	}
	rank := 0
	row := 0
	for col := 0; col < cols && row < rows; col++ {
		pivot := -1
		pmax := tol
		for r := row; r < rows; r++ {
			if v := math.Abs(work[r*cols+col]); v > pmax {
				pmax, pivot = v, r
			}
		}
		if pivot < 0 {
			continue
		}
		swapRowSlices(work, cols, pivot, row)
		prow := work[row*cols : row*cols+cols]
		pv := prow[col]
		for r := row + 1; r < rows; r++ {
			rrow := work[r*cols : r*cols+cols]
			f := rrow[col] / pv
			if f == 0 {
				continue
			}
			for c := col; c < cols; c++ {
				rrow[c] -= f * prow[c]
			}
		}
		row++
		rank++
	}
	return rank
}

// SolveLeastSquaresMinNorm returns the minimum-norm x minimising ‖A·x − b‖₂.
// For full-row-rank A (rows ≤ cols) this is the exact minimum-norm solution
// x = Aᵀ(AAᵀ)⁻¹b. For overdetermined systems it returns the least-squares
// solution via the normal equations. Returns ErrSingular when the relevant
// Gram matrix is singular (rank-deficient A).
func SolveLeastSquaresMinNorm(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != len(b) {
		return nil, fmt.Errorf("%w: rhs length %d != rows %d", ErrShape, len(b), a.rows)
	}
	if a.rows <= a.cols {
		// Underdetermined/square: x = Aᵀ·y with (A·Aᵀ)·y = b.
		at := a.T()
		gram, err := a.Mul(at)
		if err != nil {
			return nil, err
		}
		y, err := Solve(gram, b)
		if err != nil {
			return nil, err
		}
		return at.MulVec(y)
	}
	// Overdetermined: (AᵀA)·x = Aᵀ·b.
	at := a.T()
	gram, err := at.Mul(a)
	if err != nil {
		return nil, err
	}
	rhs, err := at.MulVec(b)
	if err != nil {
		return nil, err
	}
	return Solve(gram, rhs)
}

// SolveConsistent finds any x with A·x = b for a possibly non-square,
// possibly rank-deficient A, by Gaussian elimination with partial pivoting
// and free variables pinned to zero. Returns ErrInconsistent when no exact
// solution exists (residual above tol).
func SolveConsistent(a *Matrix, b []float64, tol float64) ([]float64, error) {
	if a.rows != len(b) {
		return nil, fmt.Errorf("%w: rhs length %d != rows %d", ErrShape, len(b), a.rows)
	}
	rows, cols := a.rows, a.cols
	// One borrow covers the work matrix and the mutable rhs.
	scratch := getWork(rows*cols + rows)
	defer putWork(scratch)
	work := scratch[:rows*cols]
	rhs := scratch[rows*cols:]
	copy(work, a.data)
	copy(rhs, b)
	if tol <= 0 {
		tol = pivotTolSlice(work, rows, cols)
		if bt := Norm2(b) * DefaultTol; bt > tol {
			tol = bt
		}
	}
	// pivotRows[i] is the pivot column of elimination row i.
	pivotCols := make([]int, 0, minInt(rows, cols))
	row := 0
	for col := 0; col < cols && row < rows; col++ {
		pivot := -1
		pmax := tol
		for r := row; r < rows; r++ {
			if v := math.Abs(work[r*cols+col]); v > pmax {
				pmax, pivot = v, r
			}
		}
		if pivot < 0 {
			continue
		}
		swapRowSlices(work, cols, pivot, row)
		rhs[pivot], rhs[row] = rhs[row], rhs[pivot]
		prow := work[row*cols : row*cols+cols]
		pv := prow[col]
		for r := row + 1; r < rows; r++ {
			rrow := work[r*cols : r*cols+cols]
			f := rrow[col] / pv
			if f == 0 {
				continue
			}
			for c := col; c < cols; c++ {
				rrow[c] -= f * prow[c]
			}
			rhs[r] -= f * rhs[row]
		}
		pivotCols = append(pivotCols, col)
		row++
	}
	// Consistency: rows below the last pivot must have ~zero rhs.
	resTol := residualTol(a, b, tol)
	for r := row; r < rows; r++ {
		if math.Abs(rhs[r]) > resTol {
			return nil, ErrInconsistent
		}
	}
	// Back substitution over pivot columns; free variables stay zero.
	x := make([]float64, cols)
	for i := len(pivotCols) - 1; i >= 0; i-- {
		pc := pivotCols[i]
		irow := work[i*cols : i*cols+cols]
		sum := rhs[i]
		for c := pc + 1; c < cols; c++ {
			sum -= irow[c] * x[c]
		}
		x[pc] = sum / irow[pc]
	}
	// Validate: elimination tolerances can mask inconsistency on badly
	// conditioned systems, so check the actual residual.
	ax, err := a.MulVec(x)
	if err != nil {
		return nil, err
	}
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > resTol {
			return nil, ErrInconsistent
		}
	}
	return x, nil
}

// NullSpaceVector returns a non-zero vector v with vᵀ·A = 0 for a matrix A
// with more rows than columns (the typical decoding case: A is
// (s+1)×s). Returns ErrSingular when the left null space is empty at the
// working tolerance.
func NullSpaceVector(a *Matrix) ([]float64, error) {
	if a.rows <= a.cols {
		return nil, fmt.Errorf("%w: NullSpaceVector needs rows > cols, got %dx%d", ErrShape, a.rows, a.cols)
	}
	// vᵀA = 0  ⇔  Aᵀv = 0. Row-reduce Aᵀ (cols×rows) and read a null basis
	// vector from a free column. The transpose is materialised straight into
	// a pooled buffer.
	wrows, n := a.cols, a.rows // work is wrows×n; n is the length of v
	work := getWork(wrows * n)
	defer putWork(work)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range arow {
			work[j*n+i] = v
		}
	}
	tol := pivotTolSlice(work, wrows, n)
	pivotColOfRow := make([]int, 0, wrows)
	isPivotCol := make([]bool, n)
	row := 0
	for col := 0; col < n && row < wrows; col++ {
		pivot := -1
		pmax := tol
		for r := row; r < wrows; r++ {
			if v := math.Abs(work[r*n+col]); v > pmax {
				pmax, pivot = v, r
			}
		}
		if pivot < 0 {
			continue
		}
		swapRowSlices(work, n, pivot, row)
		prow := work[row*n : row*n+n]
		pv := prow[col]
		// Normalise pivot row and eliminate in both directions (Gauss-Jordan)
		// so back substitution is trivial.
		for c := col; c < n; c++ {
			prow[c] /= pv
		}
		for r := 0; r < wrows; r++ {
			if r == row {
				continue
			}
			rrow := work[r*n : r*n+n]
			f := rrow[col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				rrow[c] -= f * prow[c]
			}
		}
		pivotColOfRow = append(pivotColOfRow, col)
		isPivotCol[col] = true
		row++
	}
	// Pick the first free column and build the corresponding null vector.
	free := -1
	for c := 0; c < n; c++ {
		if !isPivotCol[c] {
			free = c
			break
		}
	}
	if free < 0 {
		return nil, ErrSingular
	}
	v := make([]float64, n)
	v[free] = 1
	for r, pc := range pivotColOfRow {
		v[pc] = -work[r*n+free]
	}
	return v, nil
}

// swapRowSlices swaps rows i and j of a row-major buffer with the given
// stride.
func swapRowSlices(data []float64, stride, i, j int) {
	if i == j {
		return
	}
	ri := data[i*stride : i*stride+stride]
	rj := data[j*stride : j*stride+stride]
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

// pivotTolSlice mirrors pivotTol for a raw row-major buffer.
func pivotTolSlice(data []float64, rows, cols int) float64 {
	var scale float64
	for _, v := range data {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		return DefaultTol
	}
	return DefaultTol * scale * float64(maxInt(rows, cols))
}

func residualTol(a *Matrix, b []float64, tol float64) float64 {
	// Residual comparisons operate on combined magnitudes of A and b.
	rt := tol * 1e3
	if bt := (1 + Norm2(b)) * 1e-7; bt > rt {
		rt = bt
	}
	return rt
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
