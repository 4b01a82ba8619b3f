package core

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/hetgc/hetgc/internal/linalg"
	"github.com/hetgc/hetgc/internal/partition"
)

// defaultMaxGroups caps the exhaustive group enumeration: the pruning step
// keeps at most s+1 disjoint groups anyway, so a modest cap is ample.
const defaultMaxGroups = 128

// bitset is a fixed-size bitmask over partitions.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
func (b bitset) clone() bitset  { return append(bitset(nil), b...) }
func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}
func (b bitset) disjoint(o bitset) bool {
	for i := range b {
		if b[i]&o[i] != 0 {
			return false
		}
	}
	return true
}
func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// FindGroups enumerates worker sets whose partition sets are pairwise
// disjoint and together cover every partition (condition ⋆ of §V) — the
// paper's Alg. 2 FindAllGroups, implemented as a canonical exact-cover
// search: at every step the holder of the lowest uncovered partition is
// chosen, so each group is produced exactly once. The search stops after
// maxGroups results (≤ 0 means the default cap).
func FindGroups(alloc *partition.Allocation, maxGroups int) [][]int {
	if maxGroups <= 0 {
		maxGroups = defaultMaxGroups
	}
	k := alloc.K
	m := alloc.M()
	sets := make([]bitset, m)
	for w := 0; w < m; w++ {
		bs := newBitset(k)
		for _, p := range alloc.Parts[w] {
			bs.set(p)
		}
		sets[w] = bs
	}
	full := newBitset(k)
	for p := 0; p < k; p++ {
		full.set(p)
	}
	holders := alloc.Holders()

	var (
		results [][]int
		chosen  []int
	)
	var search func(covered bitset)
	search = func(covered bitset) {
		if len(results) >= maxGroups {
			return
		}
		if covered.equal(full) {
			g := append([]int(nil), chosen...)
			sort.Ints(g)
			results = append(results, g)
			return
		}
		// Lowest uncovered partition: exactly one of its holders must be in
		// any completing group, so branching on them is exhaustive and
		// duplicate-free.
		low := -1
		for p := 0; p < k; p++ {
			if !covered.has(p) {
				low = p
				break
			}
		}
		for _, w := range holders[low] {
			if !sets[w].disjoint(covered) {
				continue
			}
			next := covered.clone()
			next.or(sets[w])
			chosen = append(chosen, w)
			search(next)
			chosen = chosen[:len(chosen)-1]
			if len(results) >= maxGroups {
				return
			}
		}
	}
	// Workers with no partitions never join a group.
	search(newBitset(k))
	return results
}

// PruneGroups enforces condition ⋆⋆ (pairwise-disjoint groups) by repeatedly
// removing the group that intersects the most other groups, as in Alg. 2's
// PruneGroups. Ties break toward the larger group, then the higher index,
// which keeps small fast groups preferentially.
func PruneGroups(groups [][]int) [][]int {
	kept := make([][]int, len(groups))
	copy(kept, groups)
	for {
		n := len(kept)
		overlaps := make([]int, n)
		conflict := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if intersects(kept[i], kept[j]) {
					overlaps[i]++
					overlaps[j]++
					conflict = true
				}
			}
		}
		if !conflict {
			return kept
		}
		worst := 0
		for i := 1; i < n; i++ {
			if overlaps[i] > overlaps[worst] ||
				(overlaps[i] == overlaps[worst] && len(kept[i]) > len(kept[worst])) ||
				(overlaps[i] == overlaps[worst] && len(kept[i]) == len(kept[worst]) && i > worst) {
				worst = i
			}
		}
		kept = append(kept[:worst], kept[worst+1:]...)
	}
}

func intersects(a, b []int) bool {
	// Both sorted ascending.
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// NewGroupBased builds the paper's group-based strategy (Alg. 3) on the
// heterogeneity-aware allocation: group workers get all-ones coding rows and
// decode by summation; the remaining workers Ē get an Alg. 1 sub-code with
// straggler budget s−P. Robust to any s stragglers (Theorem 6).
func NewGroupBased(throughputs []float64, k, s int, rng *rand.Rand) (*Strategy, error) {
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrBadInput)
	}
	alloc, err := partition.Proportional(throughputs, k, s)
	if err != nil {
		return nil, fmt.Errorf("group-based allocation: %w", err)
	}
	return NewGroupBasedFromAllocation(alloc, rng)
}

// NewGroupBasedFromAllocation builds the group-based code on a caller
// allocation. When no groups exist the result degenerates to a pure Alg. 1
// code (still robust to s stragglers, without the summation fast path).
func NewGroupBasedFromAllocation(alloc *partition.Allocation, rng *rand.Rand) (*Strategy, error) {
	if err := alloc.Validate(); err != nil {
		return nil, err
	}
	groups := PruneGroups(FindGroups(alloc, 0))
	p := len(groups)
	m := alloc.M()
	s := alloc.S

	if p == 0 {
		b, c, err := buildCode(alloc, s, rng)
		if err != nil {
			return nil, err
		}
		return &Strategy{kind: GroupBased, alloc: alloc, b: b, c: c}, nil
	}

	inGroup := make([]bool, m)
	for _, g := range groups {
		for _, w := range g {
			inGroup[w] = true
		}
	}
	b := linalg.NewMatrix(m, alloc.K)
	for w := 0; w < m; w++ {
		if !inGroup[w] {
			continue
		}
		for _, part := range alloc.Parts[w] {
			b.Set(w, part, 1)
		}
	}

	var ebar []int
	for w := 0; w < m; w++ {
		if !inGroup[w] {
			ebar = append(ebar, w)
		}
	}
	st := &Strategy{kind: GroupBased, alloc: alloc, b: b, groups: groups}
	if len(ebar) == 0 {
		return st, nil
	}
	// Coverage bookkeeping: every group holds exactly one copy of each
	// partition, so Ē covers each partition s+1−P times. If any Ē worker
	// holds data then P ≤ s and the sub-code tolerates s−P stragglers.
	ebarHasData := false
	for _, w := range ebar {
		if alloc.Loads[w] > 0 {
			ebarHasData = true
			break
		}
	}
	st.ebar = ebar
	if !ebarHasData {
		// Empty rows; nothing to code. (P > s ⇒ some group always survives.)
		return st, nil
	}
	subS := s - p
	if subS < 0 {
		return nil, fmt.Errorf("%w: %d groups but Ē workers hold data (coverage violated)", ErrConstruction, p)
	}
	subC, err := buildSubCode(alloc, ebar, subS, b, rng)
	if err != nil {
		return nil, err
	}
	st.subC = subC
	st.subS = subS
	st.ebarPo = make(map[int]int, len(ebar))
	for pos, w := range ebar {
		st.ebarPo[w] = pos
	}
	return st, nil
}

// buildSubCode runs the Alg. 1 solve restricted to the Ē workers and embeds
// the resulting rows into b. The sub-allocation covers every partition
// exactly subS+1 times.
func buildSubCode(alloc *partition.Allocation, ebar []int, subS int, b *linalg.Matrix, rng *rand.Rand) (*linalg.Matrix, error) {
	// Holders of each partition within Ē, by Ē position.
	holders := make([][]int, alloc.K)
	for pos, w := range ebar {
		for _, part := range alloc.Parts[w] {
			holders[part] = append(holders[part], pos)
		}
	}
	for part, hs := range holders {
		if len(hs) < subS+1 {
			return nil, fmt.Errorf("%w: partition %d covered %d times in Ē, need ≥ %d", ErrConstruction, part, len(hs), subS+1)
		}
	}
	subB, subC, err := solveCode(holders, len(ebar), subS, rng)
	if err != nil {
		return nil, err
	}
	for pos, w := range ebar {
		b.SetRow(w, subB.Row(pos))
	}
	return subC, nil
}
