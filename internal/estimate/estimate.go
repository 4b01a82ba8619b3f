// Package estimate provides worker-throughput estimators. The paper's
// heter-aware scheme assumes c_i "can be estimated by sampling" (§III.C);
// this package implements that sampling estimator plus an EWMA variant, and
// exposes controlled mis-estimation used by the ablation experiments that
// motivate the group-based scheme (§V: "c_i in practical system is hard to
// be measured exactly").
package estimate

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrNoSamples is returned when an estimate is requested before any
// observation.
var ErrNoSamples = errors.New("estimate: no samples")

// Sampler estimates throughput as the mean of observed rates
// (partitions processed / elapsed seconds).
type Sampler struct {
	sum   float64
	count int
}

// Observe records one measurement of work completed in elapsed seconds.
func (s *Sampler) Observe(partitions int, elapsed float64) error {
	if partitions <= 0 || elapsed <= 0 {
		return fmt.Errorf("estimate: invalid observation partitions=%d elapsed=%v", partitions, elapsed)
	}
	s.sum += float64(partitions) / elapsed
	s.count++
	return nil
}

// Estimate returns the mean observed rate.
func (s *Sampler) Estimate() (float64, error) {
	if s.count == 0 {
		return 0, ErrNoSamples
	}
	return s.sum / float64(s.count), nil
}

// Count returns the number of observations.
func (s *Sampler) Count() int { return s.count }

// EWMA estimates throughput with exponential smoothing, adapting to slow
// drift in machine speed.
type EWMA struct {
	// Alpha is the smoothing factor in (0,1]; higher reacts faster.
	Alpha float64

	value float64
	init  bool
}

// Observe records one rate measurement.
func (e *EWMA) Observe(partitions int, elapsed float64) error {
	if partitions <= 0 || elapsed <= 0 {
		return fmt.Errorf("estimate: invalid observation partitions=%d elapsed=%v", partitions, elapsed)
	}
	if e.Alpha <= 0 || e.Alpha > 1 {
		return fmt.Errorf("estimate: alpha %v outside (0,1]", e.Alpha)
	}
	rate := float64(partitions) / elapsed
	if !e.init {
		e.value = rate
		e.init = true
		return nil
	}
	e.value = e.Alpha*rate + (1-e.Alpha)*e.value
	return nil
}

// Estimate returns the smoothed rate.
func (e *EWMA) Estimate() (float64, error) {
	if !e.init {
		return 0, ErrNoSamples
	}
	return e.value, nil
}

// Meter is the online estimator used by the elastic control plane: an EWMA
// gated on a minimum observation count, so that cold or freshly-(re)joined
// workers fall back to a prior guess until they have reported enough
// iterations of telemetry, and of bounded influence, so that one sample — a
// stall the straggler budget absorbed — is not mistaken for a new speed.
type Meter struct {
	ewma  EWMA
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
	return &Meter{ewma: EWMA{Alpha: alpha}, prior: prior}
}

// Observe records one rate measurement (partitions processed in elapsed
// seconds), clipped to within maxStep of the estimate once there is one.
func (m *Meter) Observe(partitions int, elapsed float64) error {
	if v := m.ewma.value; m.ewma.init && v > 0 && elapsed > 0 {
		expected := float64(partitions) / v
		elapsed = max(expected/maxStep, min(elapsed, expected*maxStep))
	}
	if err := m.ewma.Observe(partitions, elapsed); err != nil {
		return err
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
	if m.count >= min {
		if v, err := m.ewma.Estimate(); err == nil {
			return v
		}
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
	return MeterState{Prior: m.prior, Value: m.ewma.value, Init: m.ewma.init, Count: m.count}
}

// NewMeterFromState revives a meter from a checkpointed snapshot with the
// given smoothing factor. A state with a non-positive count is normalised to
// a cold meter (prior only).
func NewMeterFromState(alpha float64, st MeterState) *Meter {
	m := NewMeter(alpha, st.Prior)
	if st.Count > 0 {
		m.count = st.Count
		m.ewma.value = st.Value
		m.ewma.init = st.Init
	}
	return m
}

// Reset clears the observation history but keeps the prior — for callers
// that know a machine's speed changed discontinuously (e.g. it moved to new
// hardware) and want the EWMA to restart rather than converge from stale
// samples. The elastic control plane deliberately does NOT reset on rejoin:
// a warm estimate is usually a better prior than none.
func (m *Meter) Reset() {
	m.ewma = EWMA{Alpha: m.ewma.Alpha}
	m.count = 0
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
