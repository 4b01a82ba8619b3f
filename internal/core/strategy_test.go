package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hetgc/hetgc/internal/linalg"
	"github.com/hetgc/hetgc/internal/partition"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Naive:                "naive",
		Cyclic:               "cyclic",
		FractionalRepetition: "frac-rep",
		HeterAware:           "heter-aware",
		GroupBased:           "group-based",
		Kind(99):             "Kind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestNaiveDecode(t *testing.T) {
	st, err := NewNaive(4)
	if err != nil {
		t.Fatal(err)
	}
	coeffs, err := st.Decode(AliveFromStragglers(4, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.VecEqual(coeffs, []float64{1, 1, 1, 1}, 0) {
		t.Fatalf("coeffs = %v", coeffs)
	}
	if _, err := st.Decode(AliveFromStragglers(4, []int{2})); !errors.Is(err, ErrUndecodable) {
		t.Fatalf("err = %v, want ErrUndecodable", err)
	}
}

func TestNaiveProperties(t *testing.T) {
	st, _ := NewNaive(3)
	if st.Kind() != Naive || st.M() != 3 || st.K() != 3 || st.S() != 0 {
		t.Fatalf("unexpected shape: kind=%v m=%d k=%d s=%d", st.Kind(), st.M(), st.K(), st.S())
	}
}

func TestHeterAwarePaperExample(t *testing.T) {
	// Example 1: c = [1 2 3 4 4], k = 7, s = 1.
	st, err := NewHeterAware([]float64{1, 2, 3, 4, 4}, 7, 1, newRng(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.M() != 5 || st.K() != 7 || st.S() != 1 {
		t.Fatalf("shape: m=%d k=%d s=%d", st.M(), st.K(), st.S())
	}
	// Support must match the paper's supp(B5×7).
	wantSupport := [][]int{{0}, {1, 2}, {3, 4, 5}, {0, 1, 2, 6}, {3, 4, 5, 6}}
	b := st.B()
	for w := 0; w < 5; w++ {
		var got []int
		for j := 0; j < 7; j++ {
			if b.At(w, j) != 0 {
				got = append(got, j)
			}
		}
		if len(got) != len(wantSupport[w]) {
			t.Fatalf("worker %d support = %v, want %v", w, got, wantSupport[w])
		}
		for i := range got {
			if got[i] != wantSupport[w][i] {
				t.Fatalf("worker %d support = %v, want %v", w, got, wantSupport[w])
			}
		}
	}
	// Robust to any single straggler.
	if err := VerifyRobustness(st, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// Every straggler pattern of size ≤ s decodes to a row a with aᵀB = 1ᵀ and
// a zero on every straggler: the Example 1 heter-aware code, an s = 2
// heter-aware code and the Example 1 group-based code.
func TestHeterAwareDecodeEveryPattern(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Strategy, error)
	}{
		{"heter-aware-s1", func() (*Strategy, error) { return NewHeterAware([]float64{1, 2, 3, 4, 4}, 7, 1, newRng(2)) }},
		{"heter-aware-s2", func() (*Strategy, error) { return NewHeterAware([]float64{1, 1, 2, 2, 3, 3}, 8, 2, newRng(42)) }},
		{"group-based-s1", func() (*Strategy, error) { return NewGroupBased([]float64{1, 2, 3, 4, 4}, 7, 1, newRng(46)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			ones := linalg.OnesVec(st.K())
			var stragglers []int
			var walk func(start int)
			walk = func(start int) {
				coeffs, err := st.Decode(AliveFromStragglers(st.M(), stragglers))
				if err != nil {
					t.Fatalf("stragglers %v: %v", stragglers, err)
				}
				for _, w := range stragglers {
					if coeffs[w] != 0 {
						t.Fatalf("stragglers %v: worker %d got non-zero coefficient %v", stragglers, w, coeffs[w])
					}
				}
				row, err := st.B().VecMul(coeffs)
				if err != nil {
					t.Fatal(err)
				}
				if !linalg.VecEqual(row, ones, 1e-7) {
					t.Fatalf("stragglers %v: aᵀB = %v, want all-ones", stragglers, row)
				}
				if len(stragglers) == st.S() {
					return
				}
				for w := start; w < st.M(); w++ {
					stragglers = append(stragglers, w)
					walk(w + 1)
					stragglers = stragglers[:len(stragglers)-1]
				}
			}
			walk(0)
		})
	}
}

func TestHeterAwareS2(t *testing.T) {
	st, err := NewHeterAware([]float64{1, 1, 2, 2, 3, 3}, 8, 2, newRng(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRobustness(st, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeterAwareS0(t *testing.T) {
	st, err := NewHeterAware([]float64{1, 2, 3}, 6, 0, newRng(4))
	if err != nil {
		t.Fatal(err)
	}
	coeffs, err := st.Decode(AliveFromStragglers(3, nil))
	if err != nil {
		t.Fatal(err)
	}
	row, _ := st.B().VecMul(coeffs)
	if !linalg.VecEqual(row, linalg.OnesVec(6), 1e-7) {
		t.Fatalf("aᵀB = %v", row)
	}
}

func TestHeterAwareTooManyStragglers(t *testing.T) {
	st, err := NewHeterAware([]float64{1, 2, 3, 4, 4}, 7, 1, newRng(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Decode(AliveFromStragglers(5, []int{0, 1})); !errors.Is(err, ErrUndecodable) {
		t.Fatalf("err = %v, want ErrUndecodable", err)
	}
}

func TestHeterAwareNilRng(t *testing.T) {
	if _, err := NewHeterAware([]float64{1, 1}, 2, 0, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
}

func TestCyclicScheme(t *testing.T) {
	st, err := NewCyclic(5, 2, newRng(6))
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind() != Cyclic || st.K() != 5 {
		t.Fatalf("kind=%v k=%d", st.Kind(), st.K())
	}
	if err := VerifyRobustness(st, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Every worker has equal load s+1 = 3.
	for i, n := range st.Allocation().Loads {
		if n != 3 {
			t.Fatalf("worker %d load %d, want 3", i, n)
		}
	}
}

func TestFractionalRepetitionDecode(t *testing.T) {
	st, err := NewFractionalRepetition(6, 1) // 2 groups of 3 workers
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRobustness(st, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Killing both replicas of one block is undecodable.
	if _, err := st.Decode(AliveFromStragglers(6, []int{0, 3})); !errors.Is(err, ErrUndecodable) {
		t.Fatalf("err = %v, want ErrUndecodable", err)
	}
	// Killing one replica of different blocks (within budget... this is 2 > s=1,
	// but block-wise decodable) still decodes via surviving replicas.
	coeffs, err := st.Decode(AliveFromStragglers(6, []int{0, 4}))
	if err != nil {
		t.Fatalf("cross-block stragglers should decode: %v", err)
	}
	row, _ := st.B().VecMul(coeffs)
	if !linalg.VecEqual(row, linalg.OnesVec(6), 1e-9) {
		t.Fatalf("aᵀB = %v", row)
	}
}

func TestFractionalRepetitionIndivisible(t *testing.T) {
	if _, err := NewFractionalRepetition(5, 1); err == nil {
		t.Fatal("expected error for (s+1) ∤ m")
	}
}

func TestGroupBasedPaperExample(t *testing.T) {
	// Example 1 allocation: groups {W3,W4} and {W1,W2,W5} tile the 7
	// partitions; indices 0-based: {2,3} and {0,1,4}.
	st, err := NewGroupBased([]float64{1, 2, 3, 4, 4}, 7, 1, newRng(7))
	if err != nil {
		t.Fatal(err)
	}
	groups := st.Groups()
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2 disjoint groups", groups)
	}
	seen := map[int]bool{}
	for _, g := range groups {
		for _, w := range g {
			if seen[w] {
				t.Fatalf("groups overlap: %v", groups)
			}
			seen[w] = true
		}
	}
	if len(seen) != 5 {
		t.Fatalf("all 5 workers should be grouped, got %v", groups)
	}
	if err := VerifyRobustness(st, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupBasedGroupRowsAreIndicators(t *testing.T) {
	st, err := NewGroupBased([]float64{1, 2, 3, 4, 4}, 7, 1, newRng(8))
	if err != nil {
		t.Fatal(err)
	}
	b := st.B()
	for _, g := range st.Groups() {
		for _, w := range g {
			for _, p := range st.Allocation().Parts[w] {
				if b.At(w, p) != 1 {
					t.Fatalf("group worker %d partition %d coeff = %v, want 1", w, p, b.At(w, p))
				}
			}
		}
	}
}

func TestGroupBasedDecodePrefersGroups(t *testing.T) {
	st, err := NewGroupBased([]float64{1, 2, 3, 4, 4}, 7, 1, newRng(9))
	if err != nil {
		t.Fatal(err)
	}
	// All alive: decode must use a single group (0/1 coefficients).
	coeffs, err := st.Decode(AliveFromStragglers(5, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range coeffs {
		if v != 0 && v != 1 {
			t.Fatalf("coeff[%d] = %v, want 0/1 indicator", i, v)
		}
	}
	row, _ := st.B().VecMul(coeffs)
	if !linalg.VecEqual(row, linalg.OnesVec(7), 1e-9) {
		t.Fatalf("aᵀB = %v", row)
	}
}

func TestGroupBasedWithEbarSubcode(t *testing.T) {
	// 7 workers, throughputs chosen so that not everyone fits in disjoint
	// groups; s = 2 gives room for an Ē sub-code.
	c := []float64{1, 1, 2, 2, 3, 3, 2}
	st, err := NewGroupBased(c, 7, 2, newRng(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRobustness(st, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupBasedManyShapes(t *testing.T) {
	shapes := []struct {
		c    []float64
		k, s int
	}{
		{[]float64{1, 1, 1, 1}, 4, 1},
		{[]float64{1, 2, 3, 4}, 10, 1},
		{[]float64{2, 2, 2, 2, 2, 2}, 6, 2},
		{[]float64{1, 2, 3, 4, 4, 5, 5, 4}, 14, 2},
		{[]float64{1, 1, 2, 2, 3, 3, 4, 4, 4, 4}, 16, 3},
	}
	for i, sh := range shapes {
		st, err := NewGroupBasedFromAllocationSeeded(t, sh.c, sh.k, sh.s, int64(100+i))
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		if err := VerifyRobustness(st, 0, nil); err != nil {
			t.Fatalf("shape %d (%v): %v", i, sh, err)
		}
	}
}

// NewGroupBasedFromAllocationSeeded is a test helper building the group
// scheme with a fixed seed.
func NewGroupBasedFromAllocationSeeded(t *testing.T, c []float64, k, s int, seed int64) (*Strategy, error) {
	t.Helper()
	return NewGroupBased(c, k, s, newRng(seed))
}

func TestFindGroupsPaperAllocation(t *testing.T) {
	alloc, err := partition.Proportional([]float64{1, 2, 3, 4, 4}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups := FindGroups(alloc, 0)
	// Expect at least the two tilings {2,3} and {0,1,4}.
	want := map[string]bool{"2,3": false, "0,1,4": false}
	for _, g := range groups {
		key := intsKey(g)
		if _, ok := want[key]; ok {
			want[key] = true
		}
		// Check each found group is a valid exact cover.
		counts := make([]int, alloc.K)
		for _, w := range g {
			for _, p := range alloc.Parts[w] {
				counts[p]++
			}
		}
		for p, c := range counts {
			if c != 1 {
				t.Fatalf("group %v covers partition %d %d times", g, p, c)
			}
		}
	}
	for k, found := range want {
		if !found {
			t.Fatalf("expected group {%s} not found in %v", k, groups)
		}
	}
}

func intsKey(xs []int) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ","
		}
		out += string(rune('0' + x))
	}
	return out
}

func TestPruneGroupsDisjoint(t *testing.T) {
	groups := [][]int{{0, 1, 2}, {2, 3}, {1, 4}}
	pruned := PruneGroups(groups)
	for i := 0; i < len(pruned); i++ {
		for j := i + 1; j < len(pruned); j++ {
			if intersects(pruned[i], pruned[j]) {
				t.Fatalf("pruned groups overlap: %v", pruned)
			}
		}
	}
	// {0,1,2} intersects both others → removed; the two survivors remain.
	if len(pruned) != 2 {
		t.Fatalf("pruned = %v, want 2 groups", pruned)
	}
}

func TestPruneGroupsNoConflict(t *testing.T) {
	groups := [][]int{{0, 1}, {2, 3}}
	pruned := PruneGroups(groups)
	if len(pruned) != 2 {
		t.Fatalf("pruned = %v, want unchanged", pruned)
	}
}

func TestDecodeCacheConsistency(t *testing.T) {
	st, err := NewHeterAware([]float64{1, 2, 3, 4, 4}, 7, 1, newRng(11))
	if err != nil {
		t.Fatal(err)
	}
	alive := AliveFromStragglers(5, []int{3})
	first, err := st.Decode(alive)
	if err != nil {
		t.Fatal(err)
	}
	second, err := st.Decode(alive)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.VecEqual(first, second, 0) {
		t.Fatal("cached decode differs")
	}
	// The ownership contract: repeated decodes of the same pattern share one
	// canonical cached row (zero-copy hit path), so callers must copy before
	// mutating.
	if &first[0] != &second[0] {
		t.Fatal("cache hit should return the shared cached row")
	}
	mine := append([]float64(nil), second...)
	mine[0] = 1234
	third, _ := st.Decode(alive)
	if third[0] == 1234 {
		t.Fatal("copy-before-mutate leaked into the cache")
	}
}

func TestDecodeWrongLength(t *testing.T) {
	st, _ := NewNaive(3)
	if _, err := st.Decode([]bool{true}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
}

func TestDecodeConcurrent(t *testing.T) {
	st, err := NewHeterAware([]float64{1, 2, 3, 4, 4}, 7, 1, newRng(12))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	for g := 0; g < 8; g++ {
		go func(g int) {
			alive := AliveFromStragglers(5, []int{g % 5})
			_, err := st.Decode(alive)
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestVerifyRobustnessSampled(t *testing.T) {
	st, err := NewHeterAware([]float64{3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14, 14}, 60, 3, newRng(13))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRobustness(st, 40, newRng(14)); err != nil {
		t.Fatal(err)
	}
}

func TestAliveFromStragglers(t *testing.T) {
	alive := AliveFromStragglers(4, []int{1, 3, 9})
	want := []bool{true, false, true, false}
	for i := range want {
		if alive[i] != want[i] {
			t.Fatalf("alive = %v, want %v", alive, want)
		}
	}
}

func TestBinomialAtMost(t *testing.T) {
	if !binomialAtMost(10, 2, 45) {
		t.Fatal("C(10,2)=45 should be ≤ 45")
	}
	if binomialAtMost(10, 2, 44) {
		t.Fatal("C(10,2)=45 should exceed 44")
	}
	if !binomialAtMost(100, 0, 1) {
		t.Fatal("C(100,0)=1")
	}
}

// Property: heter-aware decoding recovers the exact gradient sum for random
// throughputs and straggler patterns.
func TestHeterAwareDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newRng(seed)
		m := 4 + r.Intn(8)
		s := 1 + r.Intn(2)
		if s+1 > m {
			s = m - 1
		}
		k := m + r.Intn(2*m)
		c := make([]float64, m)
		for i := range c {
			c[i] = 1 + r.Float64()*6
		}
		st, err := NewHeterAware(c, k, s, r)
		if err != nil {
			return false
		}
		stragglers := samplePattern(m, s, r)
		coeffs, err := st.Decode(AliveFromStragglers(m, stragglers))
		if err != nil {
			return false
		}
		for _, w := range stragglers {
			if coeffs[w] != 0 {
				return false
			}
		}
		row, err := st.B().VecMul(coeffs)
		if err != nil {
			return false
		}
		return linalg.VecEqual(row, linalg.OnesVec(k), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: group-based decoding succeeds for any ≤ s stragglers.
func TestGroupBasedDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newRng(seed)
		m := 4 + r.Intn(6)
		s := 1 + r.Intn(2)
		if s+1 > m {
			s = m - 1
		}
		k := m + r.Intn(m)
		c := make([]float64, m)
		for i := range c {
			c[i] = 1 + float64(r.Intn(4))
		}
		st, err := NewGroupBased(c, k, s, r)
		if err != nil {
			return false
		}
		nDead := r.Intn(s + 1)
		stragglers := samplePattern(m, nDead, r)
		coeffs, err := st.Decode(AliveFromStragglers(m, stragglers))
		if err != nil {
			return false
		}
		row, err := st.B().VecMul(coeffs)
		if err != nil {
			return false
		}
		return linalg.VecEqual(row, linalg.OnesVec(k), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
