package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustMatrix(t *testing.T, rows [][]float64) *Matrix {
	t.Helper()
	m, err := NewMatrixFromRows(rows)
	if err != nil {
		t.Fatalf("NewMatrixFromRows: %v", err)
	}
	return m
}

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixFromRowsRagged(t *testing.T) {
	if _, err := NewMatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestNewMatrixFromRowsEmpty(t *testing.T) {
	m, err := NewMatrixFromRows(nil)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("shape = %dx%d, want 0x0", m.Rows(), m.Cols())
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(1, 0, 3.5)
	if got := m.At(1, 0); got != 3.5 {
		t.Fatalf("At = %v, want 3.5", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	NewMatrix(2, 2).At(2, 0)
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(3)[%d][%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestOnes(t *testing.T) {
	m := Ones(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 1 {
				t.Fatalf("Ones[%d][%d] = %v, want 1", i, j, m.At(i, j))
			}
		}
	}
}

func TestRowColCopySemantics(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Row must return a copy")
	}
}

func TestSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.SetRow(1, []float64{7, 8, 9})
	if m.At(1, 2) != 9 || m.At(0, 0) != 0 {
		t.Fatalf("SetRow wrote wrong cells: %v", m)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestTranspose(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T shape = %dx%d", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("T values wrong: %v", tr)
	}
}

func TestMul(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	b := mustMatrix(t, [][]float64{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := mustMatrix(t, [][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulShapeMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulVec(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	got, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(got, []float64{3, 7}, 1e-12) {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestVecMul(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	got, err := a.VecMul([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(got, []float64{4, 6}, 1e-12) {
		t.Fatalf("VecMul = %v", got)
	}
}

func TestSelectRowsCols(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	rs := m.SelectRows([]int{2, 0})
	if rs.At(0, 0) != 7 || rs.At(1, 2) != 3 {
		t.Fatalf("SelectRows wrong: %v", rs)
	}
	cs := m.SelectCols([]int{1})
	if cs.Rows() != 3 || cs.Cols() != 1 || cs.At(2, 0) != 8 {
		t.Fatalf("SelectCols wrong: %v", cs)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if NewMatrix(1, 2).Equal(NewMatrix(2, 1), 1) {
		t.Fatal("different shapes must not be Equal")
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-12 {
		t.Fatal("Norm2 wrong")
	}
}

func TestOnesVec(t *testing.T) {
	if !VecEqual(OnesVec(3), []float64{1, 1, 1}, 0) {
		t.Fatal("OnesVec wrong")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := mustMatrix(t, [][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(x, []float64{1, 3}, 1e-10) {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := mustMatrix(t, [][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(x, []float64{3, 2}, 1e-12) {
		t.Fatalf("Solve = %v", x)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		inv, err := Inverse(a)
		if err != nil {
			continue // singular draw: fine, skip
		}
		prod, err := a.Mul(inv)
		if err != nil {
			t.Fatal(err)
		}
		if !prod.Equal(Identity(n), 1e-7) {
			t.Fatalf("A·A⁻¹ != I for n=%d:\n%v", n, prod)
		}
	}
}

func TestRank(t *testing.T) {
	tests := []struct {
		name string
		m    [][]float64
		want int
	}{
		{"full 2x2", [][]float64{{1, 2}, {3, 4}}, 2},
		{"rank1 2x2", [][]float64{{1, 2}, {2, 4}}, 1},
		{"zero", [][]float64{{0, 0}, {0, 0}}, 0},
		{"wide", [][]float64{{1, 0, 1}, {0, 1, 1}}, 2},
		{"tall rank2", [][]float64{{1, 0}, {0, 1}, {1, 1}}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := mustMatrix(t, tt.m)
			if got := Rank(m, 0); got != tt.want {
				t.Fatalf("Rank = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestSolveLeastSquaresMinNormUnderdetermined(t *testing.T) {
	// x + y = 2 has min-norm solution (1,1).
	a := mustMatrix(t, [][]float64{{1, 1}})
	x, err := SolveLeastSquaresMinNorm(a, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(x, []float64{1, 1}, 1e-10) {
		t.Fatalf("min-norm = %v, want [1 1]", x)
	}
}

func TestSolveLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x through (1,2),(2,4),(3,6.3): slope near 2.05.
	a := mustMatrix(t, [][]float64{{1}, {2}, {3}})
	x, err := SolveLeastSquaresMinNorm(a, []float64{2, 4, 6.3})
	if err != nil {
		t.Fatal(err)
	}
	want := (1*2 + 2*4 + 3*6.3) / (1.0 + 4 + 9)
	if math.Abs(x[0]-want) > 1e-10 {
		t.Fatalf("lsq slope = %v, want %v", x[0], want)
	}
}

func TestSolveConsistentExact(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 1, 0}, {0, 1, 1}})
	x, err := SolveConsistent(a, []float64{3, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := a.MulVec(x)
	if !VecEqual(ax, []float64{3, 5}, 1e-9) {
		t.Fatalf("residual too big: Ax=%v", ax)
	}
}

func TestSolveConsistentInconsistent(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 1}, {1, 1}})
	if _, err := SolveConsistent(a, []float64{1, 2}, 0); err == nil {
		t.Fatal("expected ErrInconsistent")
	}
}

func TestSolveConsistentRankDeficientButConsistent(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 1}, {2, 2}})
	x, err := SolveConsistent(a, []float64{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := a.MulVec(x)
	if !VecEqual(ax, []float64{1, 2}, 1e-9) {
		t.Fatalf("Ax = %v", ax)
	}
}

func TestNullSpaceVector(t *testing.T) {
	// 3x2 matrix: left null space is 1-dimensional.
	a := mustMatrix(t, [][]float64{{1, 0}, {0, 1}, {1, 1}})
	v, err := NullSpaceVector(a)
	if err != nil {
		t.Fatal(err)
	}
	if Norm2(v) < 1e-9 {
		t.Fatal("null vector must be non-zero")
	}
	// vᵀA should be ~0.
	prod, err := a.T().MulVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if Norm2(prod) > 1e-9 {
		t.Fatalf("vᵀA = %v, want 0", prod)
	}
}

func TestNullSpaceVectorShapeError(t *testing.T) {
	if _, err := NullSpaceVector(NewMatrix(2, 2)); err == nil {
		t.Fatal("expected shape error for square input")
	}
}

// Property: Solve returns x with A·x = b for random well-conditioned systems.
func TestSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance: well-conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		return VecEqual(ax, b, 1e-7)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution and preserves Mul compatibility:
// (AB)ᵀ = BᵀAᵀ.
func TestTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := randMat(r, n, m)
		b := randMat(r, m, p)
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		left := ab.T()
		right, err := b.T().Mul(a.T())
		if err != nil {
			return false
		}
		return left.Equal(right, 1e-9) && a.T().T().Equal(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: min-norm solution of a full-row-rank underdetermined system
// satisfies A·x = b exactly.
func TestMinNormProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(4)
		cols := rows + 1 + r.Intn(4)
		a := randMat(r, rows, cols)
		b := make([]float64, rows)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := SolveLeastSquaresMinNorm(a, b)
		if err != nil {
			return true // singular Gram (measure-zero); skip
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		return VecEqual(ax, b, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randMat(r *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	return m
}
