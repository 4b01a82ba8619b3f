// Package straggler provides the fault-injection models used in the paper's
// evaluation: per-iteration extra delays added to s random workers (Fig. 2),
// complete failures (infinite delay), and transient multiplicative
// fluctuation of compute time. Injectors hold no randomness of their own: they
// draw from the run's stream, so a simulation has one seeded source.
package straggler

import (
	"math"
	"math/rand"
)

// Injector produces, for every iteration, a per-worker extra delay in
// seconds. math.Inf(1) marks a failed (fully crashed) worker.
type Injector interface {
	// Delays returns the extra delay of each of m workers for one iteration,
	// drawing any randomness from rng (a nil rng injects no random delay).
	Delays(iter, m int, rng *rand.Rand) []float64
}

// None injects no delay.
type None struct{}

// Delays returns all-zero delays.
func (None) Delays(_, m int, _ *rand.Rand) []float64 { return make([]float64, m) }

// Fixed adds Delay seconds to Count random workers each iteration, the
// fault-simulation protocol of Fig. 2 ("add extra delay to any s random
// workers"). Use math.Inf(1) as Delay for fail-stop faults.
type Fixed struct {
	// Count is the number of stragglers per iteration.
	Count int
	// Delay is the extra delay in seconds (math.Inf(1) = crash).
	Delay float64
}

// Delays implements Injector.
func (f Fixed) Delays(_, m int, rng *rand.Rand) []float64 {
	out := make([]float64, m)
	if f.Count <= 0 || rng == nil {
		return out
	}
	n := f.Count
	if n > m {
		n = m
	}
	for _, w := range rng.Perm(m)[:n] {
		out[w] = f.Delay
	}
	return out
}

// Pinned adds Delay seconds to a fixed set of workers every iteration —
// deterministic consistent stragglers, useful in tests.
type Pinned struct {
	Workers []int
	Delay   float64
}

// Delays implements Injector.
func (p Pinned) Delays(_, m int, _ *rand.Rand) []float64 {
	out := make([]float64, m)
	for _, w := range p.Workers {
		if w >= 0 && w < m {
			out[w] = p.Delay
		}
	}
	return out
}

// Transient models background interference: with probability Prob a worker's
// iteration receives an extra delay drawn from an exponential distribution
// with the given Mean, the transient-fluctuation straggler cause of §I.
type Transient struct {
	// Prob is the per-worker per-iteration probability of interference.
	Prob float64
	// Mean is the mean extra delay in seconds when interference occurs.
	Mean float64
}

// Delays implements Injector.
func (tr Transient) Delays(_, m int, rng *rand.Rand) []float64 {
	out := make([]float64, m)
	if tr.Prob <= 0 || rng == nil {
		return out
	}
	for i := range out {
		if rng.Float64() < tr.Prob {
			out[i] = rng.ExpFloat64() * tr.Mean
		}
	}
	return out
}

// Compose sums the delays of several injectors (Inf dominates).
type Compose []Injector

// Delays implements Injector.
func (cs Compose) Delays(iter, m int, rng *rand.Rand) []float64 {
	out := make([]float64, m)
	for _, inj := range cs {
		for i, d := range inj.Delays(iter, m, rng) {
			out[i] += d
		}
	}
	for i, d := range out {
		if math.IsInf(d, 1) {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// Verify interface compliance.
var (
	_ Injector = None{}
	_ Injector = Fixed{}
	_ Injector = Pinned{}
	_ Injector = Transient{}
	_ Injector = Compose{}
)
