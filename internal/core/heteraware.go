package core

import (
	"fmt"
	"math/rand"

	"github.com/hetgc/hetgc/internal/linalg"
	"github.com/hetgc/hetgc/internal/partition"
)

// maxConstructionAttempts bounds re-randomisation when a random C draw is
// numerically unlucky (probability ~0 per Lemma 3, but float arithmetic can
// produce ill-conditioned C_i).
const maxConstructionAttempts = 16

// NewHeterAware builds the paper's heterogeneity-aware strategy (Alg. 1):
// loads n_i ∝ throughputs c_i with Σn_i = k(s+1), cyclic placement, and a
// coding matrix derived from a random auxiliary matrix C with CB = 1.
// The result is robust to any s stragglers (Theorem 4) and optimal for the
// worst-case makespan objective (Theorem 5).
func NewHeterAware(throughputs []float64, k, s int, rng *rand.Rand) (*Strategy, error) {
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrBadInput)
	}
	alloc, err := partition.Proportional(throughputs, k, s)
	if err != nil {
		return nil, fmt.Errorf("heter-aware allocation: %w", err)
	}
	return NewHeterAwareFromAllocation(alloc, rng)
}

// NewHeterAwareFromAllocation builds the Alg. 1 code on a caller-supplied
// allocation (used by the cyclic baseline and by tests with hand-rolled
// supports).
func NewHeterAwareFromAllocation(alloc *partition.Allocation, rng *rand.Rand) (*Strategy, error) {
	if err := alloc.Validate(); err != nil {
		return nil, err
	}
	b, c, err := buildCode(alloc, alloc.S, rng)
	if err != nil {
		return nil, err
	}
	return &Strategy{kind: HeterAware, alloc: alloc, b: b, c: c}, nil
}

// NewCyclic builds Tandon et al.'s cyclic gradient code: the uniform
// allocation (k = m, s+1 consecutive partitions each) with an Alg. 1 coding
// matrix — the homogeneous special case of heter-aware coding.
func NewCyclic(m, s int, rng *rand.Rand) (*Strategy, error) {
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrBadInput)
	}
	alloc, err := partition.Uniform(m, s)
	if err != nil {
		return nil, err
	}
	b, c, err := buildCode(alloc, s, rng)
	if err != nil {
		return nil, err
	}
	return &Strategy{kind: Cyclic, alloc: alloc, b: b, c: c}, nil
}

// NewNaive builds the uncoded baseline: k = m partitions, B = I, every
// worker required each iteration.
func NewNaive(m int) (*Strategy, error) {
	alloc, err := partition.Naive(m)
	if err != nil {
		return nil, err
	}
	return &Strategy{kind: Naive, alloc: alloc, b: linalg.Identity(m)}, nil
}

// NewFractionalRepetition builds Tandon et al.'s fractional repetition code:
// s+1 replication groups each covering the dataset disjointly, all-ones
// coding rows, decoding by picking one alive replica per block.
func NewFractionalRepetition(m, s int) (*Strategy, error) {
	alloc, err := partition.FractionalRepetition(m, s)
	if err != nil {
		return nil, err
	}
	b := linalg.NewMatrix(m, alloc.K)
	for w, parts := range alloc.Parts {
		for _, p := range parts {
			b.Set(w, p, 1)
		}
	}
	// Blocks: workers with identical partition sets replicate one another.
	workersPerGroup := m / (s + 1)
	blocks := make([][]int, workersPerGroup)
	for j := 0; j < workersPerGroup; j++ {
		replicas := make([]int, 0, s+1)
		for g := 0; g <= s; g++ {
			replicas = append(replicas, g*workersPerGroup+j)
		}
		blocks[j] = replicas
	}
	return &Strategy{kind: FractionalRepetition, alloc: alloc, b: b, blocks: blocks}, nil
}

// buildCode constructs B (and the auxiliary C) from an allocation whose
// per-partition coverage is at least s+1, following Lemma 2's construction:
// for each partition i, solve C_i·d'_i = 1 over the columns of C belonging
// to its holders and embed d'_i into B's i-th column. For coverage exactly
// s+1 the solve is the exact inverse of the paper; for larger coverage the
// minimum-norm solution is used (the proof of Lemma 2 only requires
// CB = 1, so Condition 1 still follows).
func buildCode(alloc *partition.Allocation, s int, rng *rand.Rand) (*linalg.Matrix, *linalg.Matrix, error) {
	if rng == nil {
		return nil, nil, fmt.Errorf("%w: nil rng", ErrBadInput)
	}
	holders := alloc.Holders()
	for p, hs := range holders {
		if len(hs) < s+1 {
			return nil, nil, fmt.Errorf("%w: partition %d covered %d times, need ≥ %d", ErrBadInput, p, len(hs), s+1)
		}
	}
	return solveCode(holders, alloc.M(), s, rng)
}

// solveCode is Alg. 1's solve over n coded rows: it draws C ((s+1)×n) and,
// for each partition p, solves C restricted to the columns holders[p] for
// d'_p with C_p·d'_p = 1 — the exact inverse at coverage s+1, the
// minimum-norm solution above it — and places d'_p into column p of B
// (n × len(holders)) at the rows holders[p]. A draw that leaves a solve
// singular or CB ≠ 1 is redrawn, up to maxConstructionAttempts times.
func solveCode(holders [][]int, n, s int, rng *rand.Rand) (*linalg.Matrix, *linalg.Matrix, error) {
	var lastErr error
attempts:
	for attempt := 0; attempt < maxConstructionAttempts; attempt++ {
		c := randomC(s+1, n, rng)
		b := linalg.NewMatrix(n, len(holders))
		for p, hs := range holders {
			ci := c.SelectCols(hs)
			ones := linalg.OnesVec(s + 1)
			var d []float64
			var err error
			if len(hs) == s+1 {
				d, err = linalg.Solve(ci, ones)
			} else {
				d, err = linalg.SolveLeastSquaresMinNorm(ci, ones)
			}
			if err != nil {
				lastErr = fmt.Errorf("partition %d: %w", p, err)
				continue attempts
			}
			for pos, row := range hs {
				b.Set(row, p, d[pos])
			}
		}
		if err := verifyCB(c, b); err != nil {
			lastErr = err
			continue
		}
		return b, c, nil
	}
	return nil, nil, fmt.Errorf("%w: %v", ErrConstruction, lastErr)
}

// verifyCB asserts CB = 1 within tolerance.
func verifyCB(c, b *linalg.Matrix) error {
	prod, err := c.Mul(b)
	if err != nil {
		return err
	}
	if !prod.Equal(linalg.Ones(c.Rows(), b.Cols()), 1e-7) {
		return fmt.Errorf("%w: CB != 1", ErrConstruction)
	}
	return nil
}
