// Package planner is the one step from throughput estimates to a coding
// strategy. The paper's c_i "can be estimated by sampling" (§III.C);
// BuildStrategy turns such estimates into a code of any scheme, and
// PredictedImbalance says how far a running code has drifted from them. The
// elastic control plane (internal/elastic) owns the estimates and decides
// when to rebuild; the experiments build fixed codes from the same function.
package planner

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/hetgc/hetgc/internal/core"
)

// ErrBadConfig marks a scheme BuildStrategy cannot build.
var ErrBadConfig = errors.New("planner: invalid config")

// PredictedImbalance predicts a strategy's iteration time relative to the
// optimal makespan under the given throughput estimates:
// max_i (n_i/ĉ_i) / ((s+1)k/Σĉ). It is the drift signal of the online
// replanning loop: 1.0 means the allocation still matches the estimates
// perfectly, 2.0 means iterations are predicted to run at half the possible
// speed. Estimates must align with the strategy's worker slots.
func PredictedImbalance(st *core.Strategy, estimates []float64) float64 {
	loads := st.Allocation().Loads
	if len(estimates) != len(loads) {
		return 1
	}
	var sum float64
	for _, c := range estimates {
		sum += c
	}
	if sum <= 0 {
		return 1
	}
	optimal := float64((st.S()+1)*st.K()) / sum
	worst := 0.0
	for i, n := range loads {
		if estimates[i] <= 0 {
			continue
		}
		if t := float64(n) / estimates[i]; t > worst {
			worst = t
		}
	}
	if optimal <= 0 {
		return 1
	}
	return worst / optimal
}

// BuildStrategy builds a strategy of the given scheme over m = len(estimates)
// workers. The proportional schemes (heter-aware, group-based) allocate k
// partitions by the estimates; cyclic, fractional repetition and naive
// ignore them and k. Scheme 0 defaults to heter-aware.
func BuildStrategy(scheme core.Kind, estimates []float64, k, s int, rng *rand.Rand) (*core.Strategy, error) {
	m := len(estimates)
	switch scheme {
	case core.Naive:
		return core.NewNaive(m)
	case core.Cyclic:
		return core.NewCyclic(m, s, rng)
	case core.FractionalRepetition:
		return core.NewFractionalRepetition(m, s)
	case core.HeterAware, core.Kind(0):
		return core.NewHeterAware(estimates, k, s, rng)
	case core.GroupBased:
		return core.NewGroupBased(estimates, k, s, rng)
	default:
		return nil, fmt.Errorf("%w: unknown scheme %v", ErrBadConfig, scheme)
	}
}
