package elastic

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/hetgc/hetgc/internal/core"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func newTestController(t *testing.T, cfg Config, seed int64) *Controller {
	t.Helper()
	ct, err := NewController(cfg, rng(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestControllerConfigValidation(t *testing.T) {
	if _, err := NewController(Config{K: 0, S: 1}, rng(1)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("k=0: err = %v", err)
	}
	if _, err := NewController(Config{K: 4, S: -1}, rng(1)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("s<0: err = %v", err)
	}
	// Every scheme planner.BuildStrategy builds is admitted. An unknown kind
	// is not, nor is a fractional repetition whose s+1 does not divide k.
	for _, kind := range []core.Kind{core.Naive, core.Cyclic, core.FractionalRepetition, core.HeterAware, core.GroupBased} {
		if _, err := NewController(Config{K: 4, S: 1, Scheme: kind}, rng(1)); err != nil {
			t.Fatalf("%v scheme: err = %v", kind, err)
		}
	}
	for _, cfg := range []Config{{K: 4, S: 1, Scheme: core.Kind(99)}, {K: 4, S: 2, Scheme: core.FractionalRepetition}} {
		if _, err := NewController(cfg, rng(1)); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("%v scheme, k=%d s=%d: err = %v", cfg.Scheme, cfg.K, cfg.S, err)
		}
	}
	if _, err := NewController(Config{K: 4, S: 1}, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil rng: err = %v", err)
	}
}

func TestInitialPlanAndSlots(t *testing.T) {
	ct := newTestController(t, Config{K: 8, S: 1}, 2)
	for id := 0; id < 4; id++ {
		ct.AddMember(id, 1)
	}
	replan, reason := ct.ShouldReplan(0)
	if !replan || reason != "initial" {
		t.Fatalf("ShouldReplan = %v %q", replan, reason)
	}
	plan, err := ct.Replan(0, reason)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Epoch != 0 || plan.Strategy.M() != 4 || len(plan.Members) != 4 {
		t.Fatalf("plan = %+v", plan)
	}
	for slot, id := range plan.Members {
		if plan.SlotOf(id) != slot {
			t.Fatalf("SlotOf(%d) = %d, want %d", id, plan.SlotOf(id), slot)
		}
	}
	if plan.SlotOf(99) != -1 {
		t.Fatal("unknown member must map to slot -1")
	}
	if replan, _ := ct.ShouldReplan(1); replan {
		t.Fatal("fresh balanced plan must not replan")
	}
}

func TestChurnTriggersImmediateReplan(t *testing.T) {
	ct := newTestController(t, Config{K: 8, S: 1, CooldownIters: 100}, 3)
	for id := 0; id < 4; id++ {
		ct.AddMember(id, 1)
	}
	if _, err := ct.Replan(0, "initial"); err != nil {
		t.Fatal(err)
	}
	// A join is churn and must override any cooldown.
	ct.AddMember(7, 2)
	replan, reason := ct.ShouldReplan(1)
	if !replan || reason != "churn" {
		t.Fatalf("join: ShouldReplan = %v %q", replan, reason)
	}
	plan, err := ct.Replan(1, reason)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Epoch != 1 || len(plan.Members) != 5 || plan.SlotOf(7) == -1 {
		t.Fatalf("post-join plan = %+v", plan)
	}
	// A death is churn too.
	ct.RemoveMember(0)
	replan, reason = ct.ShouldReplan(2)
	if !replan || reason != "churn" {
		t.Fatalf("death: ShouldReplan = %v %q", replan, reason)
	}
	plan, err = ct.Replan(2, reason)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Epoch != 2 || len(plan.Members) != 4 || plan.SlotOf(0) != -1 {
		t.Fatalf("post-death plan = %+v", plan)
	}
}

func TestDriftTriggersReplanAfterWarmup(t *testing.T) {
	ct := newTestController(t, Config{K: 12, S: 1, MinObservations: 2, CooldownIters: 1, DriftThreshold: 0.25}, 4)
	for id := 0; id < 4; id++ {
		ct.AddMember(id, 4) // uniform prior: balanced initial plan
	}
	if _, err := ct.Replan(0, "initial"); err != nil {
		t.Fatal(err)
	}
	loads := ct.plan.Strategy.Allocation().Loads
	// Everyone reports at the prior rate except member 0, which runs 8x slow.
	for iter := 0; iter < 3; iter++ {
		for slot, id := range ct.plan.Members {
			rate := 4.0
			if id == 0 {
				rate = 0.5
			}
			if loads[slot] == 0 {
				continue
			}
			if err := ct.Observe(id, loads[slot], float64(loads[slot])/rate); err != nil {
				t.Fatal(err)
			}
		}
	}
	if im := ct.Imbalance(); im < 1.25 {
		t.Fatalf("imbalance = %v, want drifted", im)
	}
	replan, reason := ct.ShouldReplan(3)
	if !replan || reason != "drift" {
		t.Fatalf("ShouldReplan = %v %q (imbalance %v)", replan, reason, ct.Imbalance())
	}
	plan, err := ct.Replan(3, reason)
	if err != nil {
		t.Fatal(err)
	}
	// The rebuilt plan must shift load off the slow member.
	slot := plan.SlotOf(0)
	newLoads := plan.Strategy.Allocation().Loads
	maxOther := 0
	for s, n := range newLoads {
		if s != slot && n > maxOther {
			maxOther = n
		}
	}
	if newLoads[slot] >= maxOther {
		t.Fatalf("slow member load %d not reduced below fastest %d (loads %v)", newLoads[slot], maxOther, newLoads)
	}
	events := ct.Events()
	if len(events) != 2 || events[1].Reason != "drift" || events[1].Imbalance < 1.25 {
		t.Fatalf("events = %+v", events)
	}
}

func TestDriftRespectsCooldownAndWarmup(t *testing.T) {
	ct := newTestController(t, Config{K: 8, S: 1, MinObservations: 5, CooldownIters: 10, DriftThreshold: 0.1}, 5)
	for id := 0; id < 4; id++ {
		ct.AddMember(id, 1)
	}
	if _, err := ct.Replan(0, "initial"); err != nil {
		t.Fatal(err)
	}
	// One extreme sample, but below MinObservations: priors still rule, so no
	// drift is visible and no replan fires.
	if err := ct.Observe(0, 2, 100); err != nil {
		t.Fatal(err)
	}
	if replan, _ := ct.ShouldReplan(1); replan {
		t.Fatal("cold meters must not trigger drift replans")
	}
	// Warm everyone up with drifted rates — still inside the cooldown window.
	for i := 0; i < 5; i++ {
		for id := 0; id < 4; id++ {
			rate := 1.0
			if id == 0 {
				rate = 0.05
			}
			if err := ct.Observe(id, 2, 2/rate); err != nil {
				t.Fatal(err)
			}
		}
	}
	if replan, _ := ct.ShouldReplan(5); replan {
		t.Fatal("cooldown must defer drift replans")
	}
	replan, reason := ct.ShouldReplan(10)
	if !replan || reason != "drift" {
		t.Fatalf("after cooldown: ShouldReplan = %v %q", replan, reason)
	}
}

func TestRejoinKeepsEstimateHistory(t *testing.T) {
	ct := newTestController(t, Config{K: 8, S: 1, MinObservations: 1}, 6)
	ct.AddMember(0, 1)
	ct.AddMember(1, 1)
	for i := 0; i < 4; i++ {
		if err := ct.Observe(0, 8, 1); err != nil { // 8 partitions/s
			t.Fatal(err)
		}
	}
	ct.RemoveMember(0)
	if got := ct.AliveMembers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("alive = %v", got)
	}
	ct.AddMember(0, 0) // rejoin
	if got := ct.AliveMembers(); len(got) != 2 {
		t.Fatalf("alive after rejoin = %v", got)
	}
	rate, err := ct.Rate(0)
	if err != nil || rate != 8 {
		t.Fatalf("rejoined rate = %v err %v, want warm 8", rate, err)
	}
}

func TestReplanFailsBelowQuorum(t *testing.T) {
	ct := newTestController(t, Config{K: 8, S: 2}, 7)
	ct.AddMember(0, 1)
	ct.AddMember(1, 1)
	if _, err := ct.Replan(0, "initial"); !errors.Is(err, ErrNotEnoughMembers) {
		t.Fatalf("err = %v, want ErrNotEnoughMembers", err)
	}
}

func TestObserveUnknownMember(t *testing.T) {
	ct := newTestController(t, Config{K: 8, S: 1}, 8)
	if err := ct.Observe(3, 1, 1); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ct.Rate(3); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("err = %v", err)
	}
}

// TestJoinerPriorIsFleetMean: a worker joining a warm cluster without a
// prior guess must be seeded with the fleet's mean estimated rate — a cold
// default prior would starve it of load, and a zero-load member never
// reports telemetry to correct the estimate.
func TestJoinerPriorIsFleetMean(t *testing.T) {
	ct := newTestController(t, Config{K: 8, S: 1, MinObservations: 1, InitialRate: 1}, 9)
	ct.AddMember(1, 0)
	ct.AddMember(2, 0)
	// Warm both incumbents up to ~400 partitions/s.
	for i := 0; i < 4; i++ {
		if err := ct.Observe(1, 400, 1); err != nil {
			t.Fatal(err)
		}
		if err := ct.Observe(2, 400, 1); err != nil {
			t.Fatal(err)
		}
	}
	ct.AddMember(3, 0)
	rate, err := ct.Rate(3)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 400 {
		t.Fatalf("joiner prior = %v, want fleet mean 400", rate)
	}
	// The joiner must receive a real share of load in the next plan.
	plan, err := ct.Replan(0, "churn")
	if err != nil {
		t.Fatal(err)
	}
	if slot := plan.SlotOf(3); plan.Strategy.Allocation().Loads[slot] == 0 {
		t.Fatalf("joiner starved of load: %v", plan.Strategy.Allocation().Loads)
	}
}

// TestDriftGainIsOneAfterReplan: prediction and plan are one function, so a
// plan just built from the estimates cannot be improved on by replanning
// from them, whatever they are — exactly, not within a rounding. The gain is
// memoised; every change it depends on must be seen through the memo.
func TestDriftGainIsOneAfterReplan(t *testing.T) {
	r := rng(22)
	for trial := 0; trial < 100; trial++ {
		m := 3 + r.Intn(8)
		ct := newTestController(t, Config{K: m + r.Intn(20), S: r.Intn(3), MinObservations: 1}, int64(trial))
		fresh := func(after string) {
			t.Helper()
			if got, want := ct.DriftGain(), ct.driftGain(); got != want {
				t.Fatalf("trial %d: memoised gain %v after %s, recomputed %v", trial, got, after, want)
			}
		}
		for id := 0; id < m; id++ {
			ct.AddMember(id, 1)
		}
		if _, err := ct.Replan(0, "initial"); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < m; id++ {
			if err := ct.Observe(id, 1+r.Intn(9), 0.001+r.Float64()); err != nil {
				t.Fatal(err)
			}
			fresh("an observation")
		}
		if _, err := ct.Replan(1, "drift"); err != nil {
			t.Fatal(err)
		}
		if got := ct.DriftGain(); got != 1 {
			t.Fatalf("trial %d: gain %v right after a replan, want exactly 1", trial, got)
		}
		ct.RemoveMember(0)
		fresh("a death")
		ct.AddMember(0, 0)
		fresh("a rejoin")
		ct.AddMember(m, 0)
		fresh("a join")
	}
}

// TestStallIsNotASlowdown drives the benchmark's hetero-straggler fleet
// (1,1,2,2,4,4,8,8 ms per partition, k=16, s=1, every default): one 200 ms
// stall on any one member — the transient the straggler budget is for — must
// not migrate the fleet off its plan; the same member slow three times must.
func TestStallIsNotASlowdown(t *testing.T) {
	rates := []float64{1000, 1000, 500, 500, 250, 250, 125, 125}
	const stall = 0.2
	for victim := range rates {
		ct := newTestController(t, Config{K: 16, S: 1}, 1)
		for id, c := range rates {
			ct.AddMember(id, c)
		}
		plan, err := ct.Replan(0, "initial")
		if err != nil {
			t.Fatal(err)
		}
		loads := plan.Strategy.Allocation().Loads
		round := func(slowed bool) {
			t.Helper()
			for id, c := range rates {
				sec := float64(loads[id]) / c
				if slowed && id == victim {
					sec += stall
				}
				if err := ct.Observe(id, loads[id], sec); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 5; i++ {
			round(false)
		}
		round(true)
		if replan, reason := ct.ShouldReplan(6); replan {
			t.Fatalf("member %d stalled once: ShouldReplan = %q at gain %v, want the plan %v kept", victim, reason, ct.DriftGain(), loads)
		}
		round(true)
		round(true)
		if replan, reason := ct.ShouldReplan(8); !replan || reason != "drift" {
			t.Fatalf("member %d slow three times running: ShouldReplan = %v %q at gain %v, want drift", victim, replan, reason, ct.DriftGain())
		}
	}
}

// TestControllerFixedShape: a fixed-shape scheme plans over the first K alive
// members whatever the estimates say, so it never drifts; it replans only
// when churn changes those K members, and below K alive the plan stands with
// its dead members as erasures.
func TestControllerFixedShape(t *testing.T) {
	const k, s = 4, 1
	cfg := func(kind core.Kind) Config {
		return Config{K: k, S: s, Scheme: kind, MinObservations: 1, CooldownIters: 1}
	}
	for _, kind := range []core.Kind{core.Naive, core.Cyclic, core.FractionalRepetition} {
		t.Run(kind.String(), func(t *testing.T) {
			src := newCountingSource(11)
			ct, err := NewController(cfg(kind), rand.New(src))
			if err != nil {
				t.Fatal(err)
			}
			ct.SetDrawCounter(func() uint64 { return src.draws })
			for id := 1; id <= k+1; id++ {
				ct.AddMember(id, 1)
			}
			plan, err := ct.Replan(0, "initial")
			if err != nil {
				t.Fatal(err)
			}
			if want := []int{1, 2, 3, 4}; !slices.Equal(plan.Members, want) || plan.Strategy.Kind() != kind || plan.Strategy.K() != k {
				t.Fatalf("plan over %v of %v (k=%d), want the first %d members %v", plan.Members, plan.Strategy.Kind(), plan.Strategy.K(), k, want)
			}

			// Skewed estimates: member 1 runs 100x slower than the rest.
			for i := 0; i < 3; i++ {
				for id := 1; id <= k+1; id++ {
					sec := 0.01
					if id == 1 {
						sec = 1
					}
					if err := ct.Observe(id, 1, sec); err != nil {
						t.Fatal(err)
					}
				}
			}
			if g := ct.DriftGain(); g != 1 {
				t.Fatalf("drift gain %v on skewed estimates, want exactly 1", g)
			}
			if replan, reason := ct.ShouldReplan(5); replan {
				t.Fatalf("skewed estimates: ShouldReplan = %q, want the plan kept", reason)
			}

			// State/Restore rebuilds the same code from the recorded draw position.
			st := ct.State()
			src2 := newCountingSource(11)
			ct2, err := NewController(cfg(kind), rand.New(src2))
			if err != nil {
				t.Fatal(err)
			}
			src2.fastForward(st.Plan.DrawsBefore)
			if err := ct2.Restore(st); err != nil {
				t.Fatal(err)
			}
			if got := ct2.Plan(); !slices.Equal(got.Members, plan.Members) {
				t.Fatalf("restored members %v, want %v", got.Members, plan.Members)
			}
			for slot := range plan.Members {
				if got, want := ct2.Plan().Strategy.Row(slot), plan.Strategy.Row(slot); !slices.Equal(got, want) {
					t.Fatalf("restored row %d = %v, want %v", slot, got, want)
				}
			}

			// A spare joining beside K live plan members changes nothing.
			ct.AddMember(6, 0)
			if replan, reason := ct.ShouldReplan(6); replan {
				t.Fatalf("spare join: ShouldReplan = %q, want the plan kept", reason)
			}
			// A plan member's death with spares alive moves its slot to the
			// next member in join order.
			ct.RemoveMember(2)
			if replan, reason := ct.ShouldReplan(7); !replan || reason != "churn" {
				t.Fatalf("plan member died beside spares: ShouldReplan = %v %q, want churn", replan, reason)
			}
			if plan, err = ct.Replan(7, "churn"); err != nil {
				t.Fatal(err)
			}
			if want := []int{1, 3, 4, 5}; !slices.Equal(plan.Members, want) {
				t.Fatalf("post-death plan over %v, want %v", plan.Members, want)
			}

			// K-1 alive: nothing to replan to, the plan stands.
			ct.RemoveMember(5)
			ct.RemoveMember(6)
			if replan, reason := ct.ShouldReplan(8); replan {
				t.Fatalf("k-1 alive: ShouldReplan = %q, want the plan kept", reason)
			}
			if _, err := ct.Replan(8, "churn"); !errors.Is(err, ErrNotEnoughMembers) {
				t.Fatalf("k-1 alive: Replan err = %v, want ErrNotEnoughMembers", err)
			}
			// The dead plan member rejoins on a connection without an
			// assignment: the same members are replanned under a new epoch.
			ct.AddMember(5, 0)
			if replan, reason := ct.ShouldReplan(9); !replan || reason != "churn" {
				t.Fatalf("plan member rejoined: ShouldReplan = %v %q, want churn", replan, reason)
			}
			next, err := ct.Replan(9, "churn")
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(next.Members, plan.Members) || next.Epoch != plan.Epoch+1 {
				t.Fatalf("after rejoin: epoch %d over %v, want epoch %d over %v", next.Epoch, next.Members, plan.Epoch+1, plan.Members)
			}
			if replan, reason := ct.ShouldReplan(10); replan {
				t.Fatalf("after the rejoin replan: ShouldReplan = %q", reason)
			}
		})
	}
}
