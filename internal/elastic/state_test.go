package elastic

import (
	"errors"
	"math/rand"
	"testing"
)

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

// TestStateCapturesMembership pins the captured shape: every member ever
// seen, with whether it was alive at capture.
func TestStateCapturesMembership(t *testing.T) {
	ct := driveController(t, rand.NewSource(3))
	st := ct.State()
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
	used := fresh()
	used.AddMember(1, 1)
	if err := used.Restore(&ControllerState{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("restore onto used controller: %v", err)
	}
}
