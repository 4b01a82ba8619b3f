package partition

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestProportionalLoadsPaperExample(t *testing.T) {
	// Example 1 of the paper: c = [1 2 3 4 4], s = 1, k = 7.
	// Total copies = 14, Σc = 14, so n = c exactly.
	loads, err := ProportionalLoads([]float64{1, 2, 3, 4, 4}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4, 4}
	for i := range want {
		if loads[i] != want[i] {
			t.Fatalf("loads = %v, want %v", loads, want)
		}
	}
}

func TestProportionalPaperExampleSupport(t *testing.T) {
	alloc, err := Proportional([]float64{1, 2, 3, 4, 4}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 6 cyclic placement reproduces the support of Example 1:
	// W1:{0} W2:{1,2} W3:{3,4,5} W4:{6,0,1,2} W5:{3,4,5,6}.
	want := [][]int{{0}, {1, 2}, {3, 4, 5}, {6, 0, 1, 2}, {3, 4, 5, 6}}
	for i, parts := range want {
		if len(alloc.Parts[i]) != len(parts) {
			t.Fatalf("worker %d parts = %v, want %v", i, alloc.Parts[i], parts)
		}
		for j := range parts {
			if alloc.Parts[i][j] != parts[j] {
				t.Fatalf("worker %d parts = %v, want %v", i, alloc.Parts[i], parts)
			}
		}
	}
	if err := alloc.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestProportionalLoadsRounding(t *testing.T) {
	// Non-integral ideals: c = [1 1 1], k = 4, s = 1 → total 8, ideal 8/3 each.
	loads, err := ProportionalLoads([]float64{1, 1, 1}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, n := range loads {
		sum += n
		if n > 4 {
			t.Fatalf("load %d exceeds k", n)
		}
	}
	if sum != 8 {
		t.Fatalf("Σloads = %d, want 8", sum)
	}
}

// makespan is Theorem 5's objective for given loads: max n_i/c_i over the
// workers that hold anything.
func makespan(loads []int, c []float64) float64 {
	t := 0.0
	for i, n := range loads {
		if n > 0 {
			t = math.Max(t, float64(n)/c[i])
		}
	}
	return t
}

// TestProportionalLoadsMinMax pins loads where rounding the proportional
// ideal to the nearest integers and minimising the makespan part ways, and
// the equal-rate shapes of the pinned benchmark workloads, which must not.
func TestProportionalLoadsMinMax(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    []float64
		k, s int
		want []int
	}{
		// Largest remainder gave (2, 1): 1/0.3 = 3.33 against 3/1.
		{"slow tail rounded up", []float64{1, 0.3}, 3, 0, []int{3, 0}},
		// hetero-straggler's fleet (1,1,2,2,4,4,8,8 ms per partition) as the
		// meters read it five iterations in. Largest remainder gave
		// 9 8 4 4 3 2 1 1: three copies on a 4 ms worker, 12.3 ms.
		{"live estimates", []float64{926, 876, 453, 435, 243, 240, 122, 122}, 16, 1, []int{9, 9, 4, 4, 2, 2, 1, 1}},
		{"that fleet, exact", []float64{1000, 1000, 500, 500, 250, 250, 125, 125}, 16, 1, []int{9, 9, 4, 4, 2, 2, 1, 1}},
		{"flat-raw", []float64{500, 500, 500, 500}, 8, 1, []int{4, 4, 4, 4}},
		{"a sharded-raw group", []float64{500, 500, 500}, 6, 1, []int{4, 4, 4}},
		{"equal rates, indivisible: lowest index first", []float64{1, 1, 1}, 4, 1, []int{3, 3, 2}},
		{"a dominant worker stops at k", []float64{100, 1, 1}, 3, 1, []int{3, 2, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loads, err := ProportionalLoads(tc.c, tc.k, tc.s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(loads, tc.want) {
				t.Fatalf("loads = %v (makespan %.4g), want %v (%.4g)", loads, makespan(loads, tc.c), tc.want, makespan(tc.want, tc.c))
			}
		})
	}
}

// bruteMinMakespan tries every load vector with 0 ≤ n_i ≤ k, nothing on a
// zero-rate worker and Σn_i = left.
func bruteMinMakespan(c []float64, k, left int, loads []int) float64 {
	i := len(loads)
	if i == len(c) {
		if left != 0 {
			return math.Inf(1)
		}
		return makespan(loads, c)
	}
	best := math.Inf(1)
	for n := 0; n <= k && n <= left && (n == 0 || c[i] > 0); n++ {
		best = math.Min(best, bruteMinMakespan(c, k, left-n, append(loads, n)))
	}
	return best
}

// TestProportionalLoadsOptimal holds the allocator against brute force on
// small fleets whose rates include zeros and exact ties.
func TestProportionalLoadsOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	pool := []float64{0, 0.3, 0.5, 1, 1, 2, 2, 3.7, 10}
	feasible := 0
	for trial := 0; trial < 400; trial++ {
		m, k, s := 1+r.Intn(6), 1+r.Intn(6), r.Intn(3)
		c := make([]float64, m)
		for i := range c {
			c[i] = pool[r.Intn(len(pool))]
			if r.Intn(4) == 0 {
				c[i] *= 0.5 + r.Float64()
			}
		}
		loads, err := ProportionalLoads(c, k, s)
		want := bruteMinMakespan(c, k, k*(s+1), make([]int, 0, m))
		if err != nil {
			if !math.IsInf(want, 1) {
				t.Fatalf("c=%v k=%d s=%d: %v, but loads of makespan %v exist", c, k, s, err, want)
			}
			continue
		}
		feasible++
		total := 0
		for i, n := range loads {
			if n < 0 || n > k || (c[i] == 0 && n != 0) {
				t.Fatalf("c=%v k=%d s=%d: loads %v: worker %d outside [0,k] or loaded at rate 0", c, k, s, loads, i)
			}
			total += n
		}
		if total != k*(s+1) {
			t.Fatalf("c=%v k=%d s=%d: loads %v sum to %d, want %d", c, k, s, loads, total, k*(s+1))
		}
		if got := makespan(loads, c); got != want {
			t.Fatalf("c=%v k=%d s=%d: loads %v take %v, the optimum is %v", c, k, s, loads, got, want)
		}
		if again, _ := ProportionalLoads(c, k, s); !reflect.DeepEqual(again, loads) {
			t.Fatalf("c=%v k=%d s=%d: %v then %v", c, k, s, loads, again)
		}
	}
	if feasible < 200 {
		t.Fatalf("only %d of 400 trials were feasible: the generator no longer tests the allocator", feasible)
	}
}

func TestProportionalLoadsZeroThroughputWorker(t *testing.T) {
	loads, err := ProportionalLoads([]float64{0, 1, 1}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loads[0] != 0 {
		t.Fatalf("zero-throughput worker got load %d", loads[0])
	}
}

func TestProportionalLoadsErrors(t *testing.T) {
	cases := []struct {
		name string
		c    []float64
		k, s int
		want error
	}{
		{"empty", nil, 4, 1, ErrBadInput},
		{"zero k", []float64{1}, 0, 0, ErrBadInput},
		{"negative s", []float64{1}, 4, -1, ErrBadInput},
		{"negative c", []float64{-1, 1}, 4, 0, ErrBadInput},
		{"all zero c", []float64{0, 0}, 4, 0, ErrBadInput},
		{"s too large", []float64{1, 1}, 4, 2, ErrInfeasible},
		{"not enough positive", []float64{1, 0, 0}, 4, 1, ErrInfeasible},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ProportionalLoads(tc.c, tc.k, tc.s)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestProportionalLoadsCapInfeasible(t *testing.T) {
	// One worker dominates: with cap n_i ≤ k the spill must fit elsewhere.
	// c = [100, 1], k = 3, s = 1 → total 6, cap 3 each → feasible exactly.
	loads, err := ProportionalLoads([]float64{100, 1}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loads[0] != 3 || loads[1] != 3 {
		t.Fatalf("loads = %v, want [3 3]", loads)
	}
}

func TestSplitByCapacity(t *testing.T) {
	for _, tc := range []struct {
		name string
		caps []float64
		k    int
		want []int
	}{
		// sharded-raw: two groups of three equal workers, K = 12.
		{"equal groups", []float64{3, 3}, 12, []int{6, 6}},
		{"proportional", []float64{3, 1}, 8, []int{6, 2}},
		{"remainder ties to the lowest index", []float64{1, 1, 1}, 4, []int{2, 1, 1}},
		// Largest remainder gives (3, 0, 0); each empty group then takes one
		// from the largest range.
		{"every group owns one", []float64{100, 1, 1}, 3, []int{1, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := SplitByCapacity(tc.k, tc.caps); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("SplitByCapacity(%d, %v) = %v, want %v", tc.k, tc.caps, got, tc.want)
			}
		})
	}
}

func TestCyclicFromLoadsBadSum(t *testing.T) {
	if _, err := CyclicFromLoads([]int{1, 1}, 3, 1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
}

func TestUniform(t *testing.T) {
	alloc, err := Uniform(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Worker 3 should hold {3,4,0}.
	want := []int{3, 4, 0}
	for j, p := range want {
		if alloc.Parts[3][j] != p {
			t.Fatalf("worker 3 parts = %v, want %v", alloc.Parts[3], want)
		}
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := Uniform(3, 3); err == nil {
		t.Fatal("expected error for s >= m")
	}
	if _, err := Uniform(0, 0); err == nil {
		t.Fatal("expected error for m = 0")
	}
}

func TestNaive(t *testing.T) {
	alloc, err := Naive(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if len(alloc.Parts[i]) != 1 || alloc.Parts[i][0] != i {
			t.Fatalf("naive parts[%d] = %v", i, alloc.Parts[i])
		}
	}
}

func TestFractionalRepetition(t *testing.T) {
	alloc, err := FractionalRepetition(6, 2) // 3 groups of 2 workers
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Groups of workersPerGroup=2 each cover all 6 partitions disjointly.
	for g := 0; g < 3; g++ {
		covered := make(map[int]int)
		for j := 0; j < 2; j++ {
			for _, p := range alloc.Parts[g*2+j] {
				covered[p]++
			}
		}
		if len(covered) != 6 {
			t.Fatalf("group %d covers %d partitions, want 6", g, len(covered))
		}
		for p, c := range covered {
			if c != 1 {
				t.Fatalf("group %d covers partition %d %d times", g, p, c)
			}
		}
	}
}

func TestFractionalRepetitionIndivisible(t *testing.T) {
	if _, err := FractionalRepetition(5, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestHolders(t *testing.T) {
	alloc, err := Proportional([]float64{1, 2, 3, 4, 4}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	holders := alloc.Holders()
	for p, h := range holders {
		if len(h) != 2 {
			t.Fatalf("partition %d held by %v, want 2 workers", p, h)
		}
	}
	// Partition 0 held by W1 and W4 (indices 0 and 3).
	if holders[0][0] != 0 || holders[0][1] != 3 {
		t.Fatalf("holders[0] = %v, want [0 3]", holders[0])
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	alloc, err := Proportional([]float64{1, 1, 1}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	alloc.Parts[0][0] = alloc.Parts[0][len(alloc.Parts[0])-1] // duplicate within worker (if load>1) or replication skew
	if err := alloc.Validate(); err == nil && len(alloc.Parts[0]) > 1 {
		t.Fatal("Validate should catch duplicates")
	}
}

// Property: for random throughputs, Proportional yields a valid allocation
// whose loads are monotone in throughput (up to rounding by one).
func TestProportionalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 3 + r.Intn(20)
		s := r.Intn(3)
		if s+1 > m {
			s = m - 1
		}
		k := m + r.Intn(50)
		c := make([]float64, m)
		for i := range c {
			c[i] = 0.5 + r.Float64()*7
		}
		alloc, err := Proportional(c, k, s)
		if err != nil {
			return false
		}
		if err := alloc.Validate(); err != nil {
			return false
		}
		// Loads roughly proportional: worker with 2x throughput never gets
		// fewer copies minus slack of 2 (rounding + cap effects).
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if c[i] >= 2*c[j] && alloc.Loads[i]+2 < alloc.Loads[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: cyclic placement puts consecutive partition indices on each
// worker (arc structure used by the group finder).
func TestCyclicArcProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 3 + r.Intn(10)
		s := r.Intn(2)
		k := m + r.Intn(20)
		c := make([]float64, m)
		for i := range c {
			c[i] = 1 + r.Float64()*4
		}
		alloc, err := Proportional(c, k, s)
		if err != nil {
			return false
		}
		for _, parts := range alloc.Parts {
			for j := 1; j < len(parts); j++ {
				if parts[j] != (parts[j-1]+1)%alloc.K {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
