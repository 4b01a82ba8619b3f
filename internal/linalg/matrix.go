// Package linalg provides the small dense linear-algebra kernel used by the
// gradient-coding constructions and decoders: matrices and vectors over
// float64, LU factorization with partial pivoting, inverses, rank, null
// spaces, minimum-norm least-squares solves and span-membership tests.
//
// The matrices involved in gradient coding are tiny (at most a few hundred
// rows), so the implementation favours clarity and numerical robustness over
// asymptotic tricks. All operations are deterministic.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// DefaultTol is the pivot / zero tolerance used by factorizations when the
// caller does not supply one. It is scaled by the magnitude of the matrix
// where appropriate.
const DefaultTol = 1e-10

var (
	// ErrSingular is returned when a factorization or solve encounters a
	// (numerically) singular matrix.
	ErrSingular = errors.New("linalg: singular matrix")
	// ErrShape is returned when operand dimensions are incompatible.
	ErrShape = errors.New("linalg: dimension mismatch")
	// ErrInconsistent is returned when a linear system has no solution.
	ErrInconsistent = errors.New("linalg: inconsistent linear system")
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-valued rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFromRows builds a matrix from row slices. All rows must have equal
// length. The data is copied.
func NewMatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrShape, i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Ones returns a rows×cols matrix with every entry equal to 1.
func Ones(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.data {
		m.data[i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("linalg: SetRow length %d != cols %d", len(v), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns the matrix product m·other.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.cols != other.rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrShape, m.rows, m.cols, other.rows, other.cols)
	}
	out := NewMatrix(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		for l := 0; l < m.cols; l++ {
			a := m.data[i*m.cols+l]
			if a == 0 {
				continue
			}
			rowOut := out.data[i*out.cols : (i+1)*out.cols]
			rowB := other.data[l*other.cols : (l+1)*other.cols]
			for j, b := range rowB {
				rowOut[j] += a * b
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("%w: %dx%d * vec(%d)", ErrShape, m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var sum float64
		for j, a := range row {
			sum += a * v[j]
		}
		out[i] = sum
	}
	return out, nil
}

// VecMul returns the vector-matrix product vᵀ·m as a slice of length Cols.
func (m *Matrix) VecMul(v []float64) ([]float64, error) {
	if m.rows != len(v) {
		return nil, fmt.Errorf("%w: vec(%d) * %dx%d", ErrShape, len(v), m.rows, m.cols)
	}
	out := make([]float64, m.cols)
	for i, a := range v {
		if a == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, b := range row {
			out[j] += a * b
		}
	}
	return out, nil
}

// SelectRows returns a new matrix consisting of the given rows of m, in order.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	out := NewMatrix(len(idx), m.cols)
	for r, i := range idx {
		if i < 0 || i >= m.rows {
			panic(fmt.Sprintf("linalg: SelectRows index %d out of range", i))
		}
		copy(out.data[r*out.cols:(r+1)*out.cols], m.data[i*m.cols:(i+1)*m.cols])
	}
	return out
}

// SelectCols returns a new matrix consisting of the given columns of m, in order.
func (m *Matrix) SelectCols(idx []int) *Matrix {
	out := NewMatrix(m.rows, len(idx))
	for c, j := range idx {
		if j < 0 || j >= m.cols {
			panic(fmt.Sprintf("linalg: SelectCols index %d out of range", j))
		}
		for i := 0; i < m.rows; i++ {
			out.data[i*out.cols+c] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Equal reports whether m and other have identical shape and entries within tol.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-other.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.FormatFloat(m.At(i, j), 'g', 6, 64))
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// OnesVec returns an all-ones vector of length n.
func OnesVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// VecEqual reports whether a and b are equal element-wise within tol.
func VecEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
