// Package partition implements the heterogeneity-aware data-partition
// allocation of the paper (§IV.A): given per-worker throughputs c_i and a
// straggler budget s, each of the k partitions is replicated s+1 times and
// the k(s+1) copies are distributed so that the makespan max n_i/c_i is least
// (n_i ≈ k(s+1)·c_i/Σc_j), placed cyclically (Eq. 6) so that every partition
// lands on exactly s+1 distinct workers.
package partition

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

var (
	// ErrBadInput is returned for non-positive k, negative s, or empty/invalid
	// throughput vectors.
	ErrBadInput = errors.New("partition: invalid input")
	// ErrInfeasible is returned when no allocation with n_i ≤ k per worker and
	// Σn_i = k(s+1) exists (i.e. s+1 > m).
	ErrInfeasible = errors.New("partition: infeasible allocation")
)

// Allocation describes which data partitions each worker holds.
type Allocation struct {
	// K is the number of data partitions.
	K int
	// S is the straggler budget: each partition has S+1 copies.
	S int
	// Loads[i] is n_i, the number of partition copies at worker i.
	Loads []int
	// Parts[i] lists the partition indices held by worker i, in placement
	// order.
	Parts [][]int
}

// M returns the number of workers.
func (a *Allocation) M() int { return len(a.Loads) }

// Holders returns, for each partition, the sorted list of workers holding it.
func (a *Allocation) Holders() [][]int {
	holders := make([][]int, a.K)
	for w, parts := range a.Parts {
		for _, p := range parts {
			holders[p] = append(holders[p], w)
		}
	}
	for _, h := range holders {
		sort.Ints(h)
	}
	return holders
}

// Validate checks the structural invariants: Σn_i = k(s+1), n_i ≤ k, every
// partition on exactly s+1 distinct workers, no duplicate partition within a
// worker.
func (a *Allocation) Validate() error {
	if a.K <= 0 {
		return fmt.Errorf("%w: k=%d", ErrBadInput, a.K)
	}
	total := 0
	for i, n := range a.Loads {
		if n < 0 || n > a.K {
			return fmt.Errorf("%w: worker %d load %d outside [0,%d]", ErrBadInput, i, n, a.K)
		}
		if n != len(a.Parts[i]) {
			return fmt.Errorf("%w: worker %d load %d != |parts| %d", ErrBadInput, i, n, len(a.Parts[i]))
		}
		seen := make(map[int]bool, n)
		for _, p := range a.Parts[i] {
			if p < 0 || p >= a.K {
				return fmt.Errorf("%w: worker %d holds invalid partition %d", ErrBadInput, i, p)
			}
			if seen[p] {
				return fmt.Errorf("%w: worker %d holds partition %d twice", ErrBadInput, i, p)
			}
			seen[p] = true
		}
		total += n
	}
	if total != a.K*(a.S+1) {
		return fmt.Errorf("%w: total copies %d != k(s+1)=%d", ErrBadInput, total, a.K*(a.S+1))
	}
	counts := make([]int, a.K)
	for _, parts := range a.Parts {
		for _, p := range parts {
			counts[p]++
		}
	}
	for p, c := range counts {
		if c != a.S+1 {
			return fmt.Errorf("%w: partition %d replicated %d times, want %d", ErrBadInput, p, c, a.S+1)
		}
	}
	return nil
}

// ProportionalLoads computes the per-worker copy counts n_i from throughputs:
// Σ n_i = k(s+1), 0 ≤ n_i ≤ k, and the makespan max n_i/c_i — Theorem 5's
// objective — is the least any such integer loads reach. Eq. 5's ideal
// n_i = k(s+1)·c_i/Σc_j attains it when integral, which the paper assumes;
// rounding it by largest remainder does not (c = (1, 0.3), three copies:
// (2, 1) takes 3.33 where (3, 0) takes 3). Equal throughputs get loads within
// one of each other, lowest index first. Workers with c_i = 0 receive no load.
func ProportionalLoads(throughputs []float64, k, s int) ([]int, error) {
	m := len(throughputs)
	if m == 0 || k <= 0 || s < 0 {
		return nil, fmt.Errorf("%w: m=%d k=%d s=%d", ErrBadInput, m, k, s)
	}
	if s+1 > m {
		return nil, fmt.Errorf("%w: need s+1=%d ≤ m=%d workers per partition", ErrInfeasible, s+1, m)
	}
	positive := 0
	for i, c := range throughputs {
		if c < 0 {
			return nil, fmt.Errorf("%w: negative throughput c[%d]=%v", ErrBadInput, i, c)
		}
		if c > 0 {
			positive++
		}
	}
	if positive == 0 {
		return nil, fmt.Errorf("%w: all throughputs zero", ErrBadInput)
	}
	if s+1 > positive {
		return nil, fmt.Errorf("%w: only %d workers with positive throughput, need ≥ s+1=%d", ErrInfeasible, positive, s+1)
	}

	// Each copy goes to the worker whose next copy finishes earliest. The
	// finish times handed out never decrease, so the last is the makespan,
	// and every slot finishing before it is taken: nothing fits k(s+1) copies
	// under a lower one. positive·k ≥ k(s+1): a worker with room remains.
	loads := make([]int, m)
	h := make([]nextCopy, 0, positive)
	for i, c := range throughputs {
		if c > 0 {
			h = append(h, nextCopy{1 / c, i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for total := k * (s + 1); total > 0; total-- {
		i := h[0].worker
		loads[i]++
		h[0].finish = float64(loads[i]+1) / throughputs[i]
		if loads[i] == k {
			h[0].finish = math.Inf(1) // full: never the minimum again
		}
		siftDown(h, 0)
	}
	return loads, nil
}

// nextCopy is a min-heap entry of ProportionalLoads: the time at which the
// worker would finish one more copy, (n_i+1)/c_i. Ties go to the lowest index.
type nextCopy struct {
	finish float64
	worker int
}

func (a nextCopy) before(b nextCopy) bool {
	return a.finish < b.finish || a.finish == b.finish && a.worker < b.worker
}

// siftDown moves entry i down the heap until neither child is before it.
func siftDown(h []nextCopy, i int) {
	for {
		c := 2*i + 1
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if c >= len(h) || !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// SplitByCapacity sizes the contiguous partition ranges of a sharded plan's
// coding groups: k partitions shared in proportion to each group's capacity
// caps[g] by largest remainder (ties to the lowest index), then topped up so
// that every group owns at least one, each taken from the currently largest
// range. It needs 1 ≤ len(caps) ≤ k and positive capacities. Unlike
// ProportionalLoads it does not minimise the slowest group's makespan.
func SplitByCapacity(k int, caps []float64) []int {
	g := len(caps)
	total := 0.0
	for _, c := range caps {
		total += c
	}
	counts := make([]int, g)
	rem := make([]float64, g)
	assigned := 0
	for i, c := range caps {
		ideal := float64(k) * c / total
		counts[i] = int(ideal)
		rem[i] = ideal - float64(counts[i])
		assigned += counts[i]
	}
	order := make([]int, g)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if rem[order[a]] != rem[order[b]] {
			return rem[order[a]] > rem[order[b]]
		}
		return order[a] < order[b]
	})
	for i := 0; assigned < k; i = (i + 1) % g {
		counts[order[i]]++
		assigned++
	}
	for i := range counts {
		for counts[i] == 0 {
			maxAt := 0
			for j, n := range counts {
				if n > counts[maxAt] {
					maxAt = j
				}
			}
			counts[maxAt]--
			counts[i]++
		}
	}
	return counts
}

// CyclicFromLoads places the copies cyclically (Eq. 6): worker i receives
// partitions (n'_i+1 … n'_i+n_i) mod k where n'_i = Σ_{j<i} n_j. Because
// Σn_i = k(s+1), each partition ends up on exactly s+1 workers provided
// n_i ≤ k for all i.
func CyclicFromLoads(loads []int, k, s int) (*Allocation, error) {
	total := 0
	for i, n := range loads {
		if n < 0 || n > k {
			return nil, fmt.Errorf("%w: load[%d]=%d outside [0,%d]", ErrBadInput, i, n, k)
		}
		total += n
	}
	if total != k*(s+1) {
		return nil, fmt.Errorf("%w: Σloads=%d != k(s+1)=%d", ErrBadInput, total, k*(s+1))
	}
	alloc := &Allocation{
		K:     k,
		S:     s,
		Loads: append([]int(nil), loads...),
		Parts: make([][]int, len(loads)),
	}
	offset := 0
	for i, n := range loads {
		parts := make([]int, 0, n)
		for j := 0; j < n; j++ {
			parts = append(parts, (offset+j)%k)
		}
		alloc.Parts[i] = parts
		offset += n
	}
	if err := alloc.Validate(); err != nil {
		return nil, fmt.Errorf("cyclic placement produced invalid allocation: %w", err)
	}
	return alloc, nil
}

// Proportional builds the full heterogeneity-aware allocation: proportional
// loads followed by cyclic placement.
func Proportional(throughputs []float64, k, s int) (*Allocation, error) {
	loads, err := ProportionalLoads(throughputs, k, s)
	if err != nil {
		return nil, err
	}
	return CyclicFromLoads(loads, k, s)
}

// Uniform builds the classic homogeneous cyclic-code allocation of Tandon et
// al.: k = m partitions, worker i holds partitions {i, i+1, …, i+s} mod m.
func Uniform(m, s int) (*Allocation, error) {
	if m <= 0 || s < 0 || s >= m {
		return nil, fmt.Errorf("%w: m=%d s=%d", ErrBadInput, m, s)
	}
	alloc := &Allocation{K: m, S: s, Loads: make([]int, m), Parts: make([][]int, m)}
	for i := 0; i < m; i++ {
		parts := make([]int, 0, s+1)
		for j := 0; j <= s; j++ {
			parts = append(parts, (i+j)%m)
		}
		alloc.Loads[i] = s + 1
		alloc.Parts[i] = parts
	}
	if err := alloc.Validate(); err != nil {
		return nil, err
	}
	return alloc, nil
}

// Naive builds the uncoded allocation: k = m partitions, one per worker,
// tolerating zero stragglers.
func Naive(m int) (*Allocation, error) {
	if m <= 0 {
		return nil, fmt.Errorf("%w: m=%d", ErrBadInput, m)
	}
	alloc := &Allocation{K: m, S: 0, Loads: make([]int, m), Parts: make([][]int, m)}
	for i := 0; i < m; i++ {
		alloc.Loads[i] = 1
		alloc.Parts[i] = []int{i}
	}
	return alloc, nil
}

// FractionalRepetition builds Tandon et al.'s fractional-repetition
// allocation: requires (s+1) | m; the workers are split into s+1 replication
// groups, each group partitions the k=m data partitions disjointly,
// m/(s+1) consecutive partitions per worker.
func FractionalRepetition(m, s int) (*Allocation, error) {
	if m <= 0 || s < 0 || s >= m {
		return nil, fmt.Errorf("%w: m=%d s=%d", ErrBadInput, m, s)
	}
	if m%(s+1) != 0 {
		return nil, fmt.Errorf("%w: fractional repetition needs (s+1)|m, got m=%d s=%d", ErrInfeasible, m, s)
	}
	alloc := &Allocation{K: m, S: s, Loads: make([]int, m), Parts: make([][]int, m)}
	groups := s + 1
	workersPerGroup := m / groups
	partsPerWorker := m / workersPerGroup // = s+1 consecutive partitions each
	w := 0
	for g := 0; g < groups; g++ {
		for j := 0; j < workersPerGroup; j++ {
			parts := make([]int, 0, partsPerWorker)
			start := j * partsPerWorker
			for p := 0; p < partsPerWorker; p++ {
				parts = append(parts, (start+p)%m)
			}
			alloc.Loads[w] = partsPerWorker
			alloc.Parts[w] = parts
			w++
		}
	}
	if err := alloc.Validate(); err != nil {
		return nil, err
	}
	return alloc, nil
}
