// Package estimate provides the worker-throughput estimator. The paper's
// heter-aware scheme assumes c_i "can be estimated by sampling" (§III.C);
// Meter is that estimator, an exponentially smoothed sample rate, and
// Misestimate is the controlled mis-estimation used by the ablation
// experiments that motivate the group-based scheme (§V: "c_i in practical
// system is hard to be measured exactly").
package estimate

import (
	"fmt"
	"math/rand"
)

// Meter is the online estimator used by the elastic control plane: an EWMA
// gated on a minimum observation count, so that cold or freshly-(re)joined
// workers fall back to a prior guess until they have reported enough
// iterations of telemetry, and of bounded influence, so that one sample — a
// stall the straggler budget absorbed — is not mistaken for a new speed.
type Meter struct {
	alpha float64 // smoothing factor in (0,1]; higher reacts faster
	value float64 // the EWMA, meaningful once init is set
	init  bool
	prior float64
	count int
}

// maxStep bounds what one sample can say: a warm Meter reads a rate outside
// [v/maxStep, maxStep·v] of its estimate v as that bound. At the control
// plane's default α = 0.3 one slow sample, however slow, leaves the estimate
// at 0.7 + 0.3/2 = 0.85 of itself, a gain from replanning of at most 1.18:
// under the default 25 % drift threshold, so no single stall migrates the
// fleet. A real slowdown still does, one sample later (0.85² = 0.72 → 1.38).
const maxStep = 2

// NewMeter builds a meter with the given smoothing factor and prior rate
// guess (used until the meter is Ready).
func NewMeter(alpha, prior float64) *Meter {
	return &Meter{alpha: alpha, prior: prior}
}

// Observe records one rate measurement (partitions processed in elapsed
// seconds), clipped to within maxStep of the estimate once there is one. It
// rejects a non-positive measurement and a smoothing factor outside (0,1].
func (m *Meter) Observe(partitions int, elapsed float64) error {
	if partitions <= 0 || elapsed <= 0 {
		return fmt.Errorf("estimate: invalid observation partitions=%d elapsed=%v", partitions, elapsed)
	}
	if m.alpha <= 0 || m.alpha > 1 {
		return fmt.Errorf("estimate: alpha %v outside (0,1]", m.alpha)
	}
	if v := m.value; m.init && v > 0 {
		expected := float64(partitions) / v
		elapsed = max(expected/maxStep, min(elapsed, expected*maxStep))
	}
	rate := float64(partitions) / elapsed
	if m.init {
		m.value = m.alpha*rate + (1-m.alpha)*m.value
	} else {
		m.value, m.init = rate, true
	}
	m.count++
	return nil
}

// Count returns the number of observations recorded.
func (m *Meter) Count() int { return m.count }

// Ready reports whether at least min observations have been recorded.
func (m *Meter) Ready(min int) bool { return m.count >= min }

// Rate returns the smoothed rate once Ready(min), the prior guess before.
func (m *Meter) Rate(min int) float64 {
	if m.count >= min && m.init {
		return m.value
	}
	return m.prior
}

// MeterState is the serialisable snapshot of a Meter, captured by State and
// revived by NewMeterFromState — the piece of control-plane state a
// checkpoint must carry so a resumed master plans from the estimates it had
// at the snapshot, not from cold priors.
type MeterState struct {
	// Prior is the rate guess used until the meter warms up.
	Prior float64
	// Value is the EWMA value; meaningful only when Init is set.
	Value float64
	// Init reports whether the EWMA has absorbed at least one observation.
	Init bool
	// Count is the number of observations recorded.
	Count int
}

// State snapshots the meter for checkpointing.
func (m *Meter) State() MeterState {
	return MeterState{Prior: m.prior, Value: m.value, Init: m.init, Count: m.count}
}

// NewMeterFromState revives a meter from a checkpointed snapshot with the
// given smoothing factor. A state with a non-positive count is normalised to
// a cold meter (prior only).
func NewMeterFromState(alpha float64, st MeterState) *Meter {
	m := NewMeter(alpha, st.Prior)
	if st.Count > 0 {
		m.count = st.Count
		m.value = st.Value
		m.init = st.Init
	}
	return m
}

// Misestimate perturbs true throughputs with multiplicative
// Uniform(1−eps, 1+eps) noise — the controlled estimation error used by the
// group-based ablation. eps=0 returns an exact copy.
func Misestimate(truth []float64, eps float64, rng *rand.Rand) []float64 {
	out := append([]float64(nil), truth...)
	if eps <= 0 || rng == nil {
		return out
	}
	for i := range out {
		f := 1 + eps*(2*rng.Float64()-1)
		if f < 0.05 {
			f = 0.05
		}
		out[i] *= f
	}
	return out
}
