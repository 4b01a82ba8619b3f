package elastic

import (
	"errors"
	"math/rand"
	"testing"
)

// countedSource is a minimal draw-counting rand source for the
// plan-provenance state tests.
type countedSource struct {
	src   rand.Source64
	draws uint64
}

func newCountedSource(seed int64) *countedSource {
	return &countedSource{src: rand.NewSource(seed).(rand.Source64)}
}
func (s *countedSource) Int63() int64 { s.draws++; return s.src.Int63() }
func (s *countedSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}
func (s *countedSource) Seed(seed int64) { s.src.Seed(seed); s.draws = 0 }
func (s *countedSource) fastForward(n uint64) {
	for s.draws < n {
		_ = s.Uint64()
	}
}

// driveController runs a controller through joins, telemetry and replans,
// returning it mid-story.
func driveController(t *testing.T, src rand.Source) *Controller {
	t.Helper()
	ct, err := NewController(Config{K: 8, S: 1, Alpha: 0.5, MinObservations: 2, CooldownIters: 2}, rand.New(src))
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 4; id++ {
		ct.AddMember(id, float64(100*id))
	}
	if _, err := ct.Replan(0, "initial"); err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 6; iter++ {
		for id := 1; id <= 4; id++ {
			if err := ct.Observe(id, 2, 0.01*float64(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ct.RemoveMember(3)
	if _, err := ct.Replan(5, "churn"); err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestStateRestoreRebuildsPlanExactly is the core of bit-identical resume:
// capture a controller mid-run, restore it onto a fresh controller whose
// seeded source is fast-forwarded to the recorded draw position, and the
// rebuilt plan must match the original slot for slot, coefficient for
// coefficient.
func TestStateRestoreRebuildsPlanExactly(t *testing.T) {
	// Drive a controller with the counter attached from the start.
	src := newCountedSource(7)
	ct, err := NewController(Config{K: 8, S: 1, Alpha: 0.5, MinObservations: 2, CooldownIters: 2}, rand.New(src))
	if err != nil {
		t.Fatal(err)
	}
	ct.SetDrawCounter(func() uint64 { return src.draws })
	for id := 1; id <= 4; id++ {
		ct.AddMember(id, float64(100*id))
	}
	if _, err := ct.Replan(0, "initial"); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 4; id++ {
		if err := ct.Observe(id, 2, 0.01*float64(id)); err != nil {
			t.Fatal(err)
		}
		if err := ct.Observe(id, 2, 0.01*float64(id)); err != nil {
			t.Fatal(err)
		}
	}
	ct.RemoveMember(3)
	plan, err := ct.Replan(5, "churn")
	if err != nil {
		t.Fatal(err)
	}

	st := ct.State()
	if st.Plan == nil {
		t.Fatal("state carries no plan despite the draw counter")
	}
	src2 := newCountedSource(7)
	ct2, err := NewController(Config{K: 8, S: 1, Alpha: 0.5, MinObservations: 2, CooldownIters: 2}, rand.New(src2))
	if err != nil {
		t.Fatal(err)
	}
	src2.fastForward(st.Plan.DrawsBefore)
	if err := ct2.Restore(st); err != nil {
		t.Fatal(err)
	}
	plan2 := ct2.Plan()
	if plan2.Epoch != plan.Epoch {
		t.Fatalf("rebuilt epoch %d, want %d", plan2.Epoch, plan.Epoch)
	}
	if len(plan2.Members) != len(plan.Members) {
		t.Fatalf("rebuilt members %v, want %v", plan2.Members, plan.Members)
	}
	for slot, id := range plan.Members {
		if plan2.Members[slot] != id {
			t.Fatalf("slot %d member %d, want %d", slot, plan2.Members[slot], id)
		}
		r1 := plan.Strategy.Row(slot)
		r2 := plan2.Strategy.Row(slot)
		for p := range r1 {
			if r1[p] != r2[p] {
				t.Fatalf("slot %d coefficient %d drifted: %v vs %v", slot, p, r2[p], r1[p])
			}
		}
	}
	// Estimates survive: the rebuilt controller plans from the same rates.
	for id := 1; id <= 4; id++ {
		a, err1 := ct.Rate(id)
		b, err2 := ct2.Rate(id)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("member %d rate %v/%v (%v, %v)", id, a, b, err1, err2)
		}
	}
}

// TestStateWithoutCounterOmitsPlan pins the live-runtime shape: no draw
// counter, no plan provenance (the live resume replans fresh instead).
func TestStateWithoutCounterOmitsPlan(t *testing.T) {
	ct := driveController(t, rand.NewSource(3))
	st := ct.State()
	if st.Plan != nil {
		t.Fatalf("state carries plan provenance without a draw counter: %+v", st.Plan)
	}
	if len(st.Members) != 4 {
		t.Fatalf("state carries %d members, want 4", len(st.Members))
	}
	alive := 0
	for _, ms := range st.Members {
		if ms.Alive {
			alive++
		}
	}
	if alive != 3 {
		t.Fatalf("state records %d alive members, want 3", alive)
	}
}

// TestRestoreDeadMembershipAndEpochBase pins the live resume shape: every
// member restored dead, epoch base above the journaled max, first replan
// marked "initial" and numbered at the base.
func TestRestoreDeadMembershipAndEpochBase(t *testing.T) {
	ct := driveController(t, rand.NewSource(3))
	st := ct.State()
	for i := range st.Members {
		st.Members[i].Alive = false
	}
	st.Plan = nil
	st.LastReplan = -1

	ct2 := newTestController(t, Config{K: 8, S: 1}, 4)
	if err := ct2.Restore(st); err != nil {
		t.Fatal(err)
	}
	ct2.SetEpochBase(5)
	if got := len(ct2.AliveMembers()); got != 0 {
		t.Fatalf("%d alive members after dead restore", got)
	}
	if _, err := ct2.Replan(0, "resume"); !errors.Is(err, ErrNotEnoughMembers) {
		t.Fatalf("replan over dead membership: %v, want ErrNotEnoughMembers", err)
	}
	// Rejoins revive the restored identities with their warm meters.
	for id := 1; id <= 2; id++ {
		ct2.AddMember(id, 0)
	}
	replan, reason := ct2.ShouldReplan(0)
	if !replan || reason != "initial" {
		t.Fatalf("ShouldReplan = %v %q, want initial replan", replan, reason)
	}
	plan, err := ct2.Replan(0, reason)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Epoch != 5 {
		t.Fatalf("resumed epoch %d, want the base 5", plan.Epoch)
	}
	next, err := ct2.Replan(1, "churn")
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != 6 {
		t.Fatalf("epoch after base %d, want 6", next.Epoch)
	}
}

// TestRestoreRejectsBadState pins the validation.
func TestRestoreRejectsBadState(t *testing.T) {
	fresh := func() *Controller { return newTestController(t, Config{K: 8, S: 1}, 1) }
	if err := fresh().Restore(nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil state: %v", err)
	}
	if err := fresh().Restore(&ControllerState{Members: []MemberState{{ID: 0}}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero id: %v", err)
	}
	if err := fresh().Restore(&ControllerState{Members: []MemberState{{ID: 1}, {ID: 1}}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("duplicate id: %v", err)
	}
	st := &ControllerState{
		Members: []MemberState{{ID: 1, Alive: true}},
		Plan:    &PlanState{Epoch: 1, Members: []int{2}, Est: []float64{1}},
	}
	if err := fresh().Restore(st); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("plan member outside membership: %v", err)
	}
	used := fresh()
	used.AddMember(1, 1)
	if err := used.Restore(&ControllerState{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("restore onto used controller: %v", err)
	}
}
