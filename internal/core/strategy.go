// Package core implements the paper's primary contribution: gradient coding
// strategies for straggler tolerance on heterogeneous clusters.
//
// A strategy is an m×k coding matrix B together with the data-partition
// allocation that defines its support. Worker i computes the partial
// gradients of its partitions and sends the linear combination
// g̃_i = b_i·[g_1 … g_k]ᵀ. The master recovers the full gradient
// g = Σ_j g_j from any admissible subset of workers by finding decoding
// coefficients a with aᵀB = 1ᵀ supported on the alive workers (Lemma 1,
// Condition 1).
//
// Five strategies are provided:
//
//   - Naive: no replication, requires every worker (the BSP baseline).
//   - Cyclic: Tandon et al.'s homogeneous cyclic code (equal load, any
//     m−s workers decode).
//   - FractionalRepetition: Tandon et al.'s replication-group code
//     (requires (s+1) | m).
//   - HeterAware: the paper's Alg. 1 — loads proportional to worker
//     throughput, coding matrix built from a random auxiliary matrix C with
//     CB = 1 (Lemmas 2–3, Theorems 4–5).
//   - GroupBased: the paper's Alg. 2/3 — decode groups of workers whose
//     partitions exactly tile the dataset, falling back to an Alg. 1
//     sub-code on the remaining workers (Theorem 6).
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/hetgc/hetgc/internal/linalg"
	"github.com/hetgc/hetgc/internal/metrics"
	"github.com/hetgc/hetgc/internal/partition"
)

// Kind identifies a gradient coding strategy family.
type Kind int

// Strategy kinds.
const (
	Naive Kind = iota + 1
	Cyclic
	FractionalRepetition
	HeterAware
	GroupBased
)

// String returns the scheme name as used in the paper's figures.
func (k Kind) String() string {
	switch k {
	case Naive:
		return "naive"
	case Cyclic:
		return "cyclic"
	case FractionalRepetition:
		return "frac-rep"
	case HeterAware:
		return "heter-aware"
	case GroupBased:
		return "group-based"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// FixedShape reports whether the scheme's shape ignores throughput: naive,
// cyclic and fractional repetition give each of m workers one partition's
// slot (k = m), whatever the estimates say.
func (k Kind) FixedShape() bool {
	return k == Naive || k == Cyclic || k == FractionalRepetition
}

var (
	// ErrUndecodable is returned when the alive worker set cannot recover the
	// aggregated gradient.
	ErrUndecodable = errors.New("core: alive set cannot decode the gradient")
	// ErrConstruction is returned when a coding matrix cannot be built (after
	// retries with fresh randomness).
	ErrConstruction = errors.New("core: coding matrix construction failed")
	// ErrBadInput mirrors invalid constructor arguments.
	ErrBadInput = errors.New("core: invalid input")
)

// decodeTol is the residual tolerance for accepting decoding coefficients.
const decodeTol = 1e-6

// Strategy is an immutable gradient coding strategy: the allocation, the
// coding matrix B and everything needed to decode. Safe for concurrent use.
type Strategy struct {
	kind  Kind
	alloc *partition.Allocation
	b     *linalg.Matrix // m×k coding matrix
	c     *linalg.Matrix // (s+1)×m auxiliary matrix (HeterAware/Cyclic), nil otherwise

	// Group-based state.
	groups [][]int        // pairwise-disjoint decode groups (sorted worker indices)
	ebar   []int          // workers outside every group, ascending
	ebarPo map[int]int    // worker index -> position in ebar
	subC   *linalg.Matrix // (subS+1)×|ebar| auxiliary matrix of the Ē sub-code
	subS   int            // straggler tolerance of the Ē sub-code (s − P)

	// Fractional repetition state: blocks[j] lists the workers holding
	// replica j's identical partition set.
	blocks [][]int

	// Decode-plan cache (see plancache.go): bounded, pattern-keyed memo of
	// decoding rows with hit/miss/eviction counters. Masks up to 128 workers
	// use the memhash-friendly packed key; wider clusters spill to the
	// string-keyed shard. A strategy's m is fixed, so only one shard is ever
	// populated. Steady-state hits read an immutable snapshot map without
	// taking planMu.
	planMu       sync.RWMutex
	plans        planShard
	plansWide    wideShard
	planCap      atomic.Int64
	planCounters metrics.CacheCounters
}

// Kind returns the strategy family.
func (st *Strategy) Kind() Kind { return st.kind }

// M returns the number of workers.
func (st *Strategy) M() int { return st.alloc.M() }

// K returns the number of data partitions.
func (st *Strategy) K() int { return st.alloc.K }

// S returns the straggler budget the strategy was built for.
func (st *Strategy) S() int { return st.alloc.S }

// Allocation returns the data-partition allocation. The caller must not
// modify the returned value.
func (st *Strategy) Allocation() *partition.Allocation { return st.alloc }

// B returns a copy of the m×k coding matrix.
func (st *Strategy) B() *linalg.Matrix { return st.b.Clone() }

// Row returns a copy of worker i's coding vector b_i.
func (st *Strategy) Row(i int) []float64 { return st.b.Row(i) }

// Groups returns copies of the decode groups (empty except for GroupBased).
func (st *Strategy) Groups() [][]int {
	out := make([][]int, len(st.groups))
	for i, g := range st.groups {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// MinAlive returns the guaranteed-sufficient number of alive workers, m−s.
// Group-based strategies may decode from fewer (a single alive group).
func (st *Strategy) MinAlive() int { return st.M() - st.S() }

// CanDecode reports whether the given alive set can recover the gradient.
func (st *Strategy) CanDecode(alive []bool) bool {
	_, err := st.Decode(alive)
	return err == nil
}

// Decode returns decoding coefficients a (length m, zero outside the alive
// set) with aᵀB = 1ᵀ, or ErrUndecodable. Results are memoised in the bounded
// decode-plan cache, so recurring straggler patterns decode by table lookup.
//
// Ownership: the returned slice is shared with the plan cache and with every
// other caller that decoded the same pattern. Treat it as read-only; copy it
// (e.g. with append) before modifying.
func (st *Strategy) Decode(alive []bool) ([]float64, error) {
	if len(alive) != st.M() {
		return nil, fmt.Errorf("%w: alive length %d != m=%d", ErrBadInput, len(alive), st.M())
	}
	// Hot path: probe the immutable snapshot table without any lock, then
	// the recent-insert overflow under the read lock. The key is computed
	// once and reused by the miss path's re-check and insert.
	small := len(alive) <= planKeyWidth
	var key planKey
	var wideKey string
	if small {
		key = makePlanKey(alive)
		if t := st.plans.snap.Load(); t != nil {
			if res := t.get(key); res != nil {
				st.planCounters.Hit()
				return res.coeffs, res.err
			}
		}
		st.planMu.RLock()
		res, ok := st.plans.overflow[key]
		st.planMu.RUnlock()
		if ok {
			st.planCounters.Hit()
			return res.coeffs, res.err
		}
	} else {
		wideKey = makeWidePlanKey(alive)
		st.planMu.RLock()
		res, ok := st.plansWide.loadLocked(wideKey)
		st.planMu.RUnlock()
		if ok {
			st.planCounters.Hit()
			return res.coeffs, res.err
		}
	}
	st.planCounters.Miss()

	coeffs, err := st.decode(alive)
	if err == nil {
		if verr := st.verifyCoeffs(coeffs); verr != nil {
			coeffs, err = nil, verr
		}
	}

	st.planMu.Lock()
	// Another goroutine may have raced the solve; keep its entry so every
	// caller observes one canonical row per pattern.
	var evicted int
	if small {
		if prior, ok := st.plans.loadLocked(key); ok {
			st.planMu.Unlock()
			return prior.coeffs, prior.err
		}
		evicted = st.plans.store(key, &decodeResult{coeffs: coeffs, err: err}, st.planCapacity())
	} else {
		if prior, ok := st.plansWide.loadLocked(wideKey); ok {
			st.planMu.Unlock()
			return prior.coeffs, prior.err
		}
		evicted = st.plansWide.store(wideKey, &decodeResult{coeffs: coeffs, err: err}, st.planCapacity())
	}
	st.planMu.Unlock()
	st.planCounters.AddEvictions(evicted)
	return coeffs, err
}

// decode dispatches to the scheme-specific decoding paths.
func (st *Strategy) decode(alive []bool) ([]float64, error) {
	switch st.kind {
	case Naive:
		return st.decodeNaive(alive)
	case FractionalRepetition:
		return st.decodeFractional(alive)
	case Cyclic, HeterAware:
		if coeffs, err := st.decodeNullSpace(alive); err == nil {
			return coeffs, nil
		}
		return st.decodeGeneric(alive)
	case GroupBased:
		if coeffs, err := st.decodeGroup(alive); err == nil {
			return coeffs, nil
		}
		return st.decodeGeneric(alive)
	default:
		return st.decodeGeneric(alive)
	}
}

// verifyCoeffs checks aᵀB ≈ 1ᵀ.
func (st *Strategy) verifyCoeffs(coeffs []float64) error {
	row, err := st.b.VecMul(coeffs)
	if err != nil {
		return err
	}
	if !linalg.VecEqual(row, linalg.OnesVec(st.K()), decodeTol) {
		return fmt.Errorf("%w: decoding residual too large", ErrUndecodable)
	}
	return nil
}

// AliveFromStragglers builds an alive mask of length m with the given
// straggler indices set to false.
func AliveFromStragglers(m int, stragglers []int) []bool {
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	for _, s := range stragglers {
		if s >= 0 && s < m {
			alive[s] = false
		}
	}
	return alive
}

// randomC fills an rows×cols matrix with independent Uniform(0,1) entries
// (Lemma 3: such a C has properties P1 and P2 with probability 1).
func randomC(rows, cols int, rng *rand.Rand) *linalg.Matrix {
	c := linalg.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			c.Set(i, j, rng.Float64())
		}
	}
	return c
}
