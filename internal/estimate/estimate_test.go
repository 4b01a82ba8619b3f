package estimate

import (
	"math"
	"math/rand"
	"testing"
)

// The three TestEWMA* tests hold Meter's smoothing itself, at min = 1 so the
// prior never stands in for the estimate.

func TestEWMAConverges(t *testing.T) {
	m := NewMeter(0.5, 1)
	for i := 0; i < 30; i++ {
		if err := m.Observe(6, 2); err != nil { // steady rate 3
			t.Fatal(err)
		}
	}
	if got := m.Rate(1); math.Abs(got-3) > 1e-9 {
		t.Fatalf("estimate = %v, want 3", got)
	}
}

func TestEWMATracksChange(t *testing.T) {
	m := NewMeter(0.9, 1)
	for _, partitions := range []int{2, 4} { // rate 2, then a doubling the clip lets through whole
		if err := m.Observe(partitions, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Rate(1); got < 3.75 { // 0.9·4 + 0.1·2 = 3.8
		t.Fatalf("alpha=0.9 should track the new rate, got %v", got)
	}
}

func TestEWMAErrors(t *testing.T) {
	if got := NewMeter(0.5, 7).Rate(1); got != 7 {
		t.Fatalf("a meter without samples reads %v, want its prior 7", got)
	}
	for _, alpha := range []float64{0, -0.5, 2} {
		m := NewMeter(alpha, 7)
		if err := m.Observe(1, 1); err == nil {
			t.Fatalf("alpha=%v should be rejected", alpha)
		}
		if m.Count() != 0 || m.Rate(0) != 7 {
			t.Fatalf("alpha=%v: a rejected sample was recorded (count %d, rate %v)", alpha, m.Count(), m.Rate(0))
		}
	}
	if err := NewMeter(1, 7).Observe(1, 1); err != nil {
		t.Fatalf("alpha=1 is in (0,1]: %v", err)
	}
}

func TestMisestimateBoundsAndExactCopy(t *testing.T) {
	truth := []float64{1, 2, 4}
	rng := rand.New(rand.NewSource(1))
	noisy := Misestimate(truth, 0.25, rng)
	for i := range noisy {
		if noisy[i] < truth[i]*0.75-1e-9 || noisy[i] > truth[i]*1.25+1e-9 {
			t.Fatalf("noisy[%d] = %v out of bounds", i, noisy[i])
		}
	}
	exact := Misestimate(truth, 0, rng)
	for i := range exact {
		if exact[i] != truth[i] {
			t.Fatal("eps=0 must copy exactly")
		}
	}
	exact[0] = 99
	if truth[0] == 99 {
		t.Fatal("Misestimate must not alias input")
	}
}

func TestMeterPriorUntilReady(t *testing.T) {
	m := NewMeter(0.5, 4.0)
	if m.Ready(2) {
		t.Fatal("fresh meter must not be ready")
	}
	if got := m.Rate(2); got != 4.0 {
		t.Fatalf("cold rate = %v, want prior 4.0", got)
	}
	if err := m.Observe(10, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Rate(2); got != 4.0 {
		t.Fatalf("rate after 1 obs = %v, still want prior", got)
	}
	if err := m.Observe(10, 1); err != nil {
		t.Fatal(err)
	}
	if !m.Ready(2) || m.Count() != 2 {
		t.Fatalf("ready=%v count=%d", m.Ready(2), m.Count())
	}
	if got := m.Rate(2); got != 10 {
		t.Fatalf("warm rate = %v, want 10", got)
	}
}

func TestMeterRejectsBadObservation(t *testing.T) {
	m := NewMeter(0.5, 1)
	if err := m.Observe(0, 1); err == nil {
		t.Fatal("zero partitions must be rejected")
	}
	if err := m.Observe(1, -1); err == nil {
		t.Fatal("negative elapsed must be rejected")
	}
	if m.Count() != 0 {
		t.Fatalf("rejected observations must not count, got %d", m.Count())
	}
}

func TestMeterStateRoundTrip(t *testing.T) {
	m := NewMeter(0.5, 100)
	for i := 0; i < 5; i++ {
		if err := m.Observe(4, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	st := m.State()
	revived := NewMeterFromState(0.5, st)
	if revived.State() != st {
		t.Fatalf("revived state %+v, want %+v", revived.State(), st)
	}
	if got, want := revived.Rate(3), m.Rate(3); got != want {
		t.Fatalf("revived rate %v, want %v", got, want)
	}
	if revived.Count() != m.Count() {
		t.Fatalf("revived count %d, want %d", revived.Count(), m.Count())
	}
	// The revived meter keeps smoothing from where the original stood.
	if err := m.Observe(4, 0.02); err != nil {
		t.Fatal(err)
	}
	if err := revived.Observe(4, 0.02); err != nil {
		t.Fatal(err)
	}
	if m.Rate(3) != revived.Rate(3) {
		t.Fatalf("post-restore smoothing diverged: %v vs %v", revived.Rate(3), m.Rate(3))
	}
}

// TestMeterBoundedInfluence pins the clip at the control plane's default
// α = 0.3: a sample 20× off moves the estimate by at most α·(1 − 1/maxStep)
// down or α·(maxStep − 1) up, and clean samples then forget it.
func TestMeterBoundedInfluence(t *testing.T) {
	const alpha, rate = 0.3, 1000.0
	for _, tc := range []struct {
		name    string
		outlier float64 // the outlier's rate, as a multiple of the true one
		move    float64 // the most the estimate may move, relative
		clean   int     // clean samples until it is back within 2 %
	}{
		{"a 20x stall", 1.0 / 20, 0.15, 7},
		{"a 20x short sample", 20, 0.30, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMeter(alpha, 1)
			observe := func(x float64) {
				t.Helper()
				if err := m.Observe(8, 8/(rate*x)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				observe(1)
			}
			observe(tc.outlier)
			if got := math.Abs(m.Rate(1)-rate) / rate; got > tc.move+1e-12 || got < tc.move-1e-3 {
				t.Fatalf("the outlier moved the estimate by %.4f, want the clip's %.2f", got, tc.move)
			}
			for i := 0; i < tc.clean; i++ {
				observe(1)
			}
			if got := math.Abs(m.Rate(1)-rate) / rate; got > 0.02 {
				t.Fatalf("%d clean samples later the estimate is still %.4f off", tc.clean, got)
			}
		})
	}
}

// TestMeterFollowsARealChange: what the clip must not cost. Three samples at
// half speed take the estimate past the default drift threshold's 1/1.25, and
// a cold meter takes its first sample whole, however far from the prior.
func TestMeterFollowsARealChange(t *testing.T) {
	m := NewMeter(0.3, 1)
	if err := m.Observe(100, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Rate(1); got != 100 {
		t.Fatalf("first observation gave %v against a prior of 1, want 100 unclipped", got)
	}
	for i := 0; i < 3; i++ {
		if err := m.Observe(50, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Rate(1); got >= 100/1.25 {
		t.Fatalf("three half-speed samples left the estimate at %v, want under %v", got, 100/1.25)
	}
	// A state no Meter writes (a checkpoint's Value is whatever the file
	// held): a zero estimate has no band to clip to and must still recover.
	z := NewMeterFromState(0.3, MeterState{Prior: 1, Init: true, Count: 5})
	if err := z.Observe(10, 1); err != nil || z.Rate(1) != 3 {
		t.Fatalf("zero estimate after one 10/s sample: rate %v err %v, want 3", z.Rate(1), err)
	}
}

func TestMeterStateColdNormalisation(t *testing.T) {
	// A state with a non-positive count revives cold: prior only.
	revived := NewMeterFromState(0.5, MeterState{Prior: 250, Value: 999, Init: true, Count: 0})
	if got := revived.Rate(1); got != 250 {
		t.Fatalf("cold revived rate %v, want the prior 250", got)
	}
	if revived.Ready(1) {
		t.Fatal("cold revived meter reports ready")
	}
}
