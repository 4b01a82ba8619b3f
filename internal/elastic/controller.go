// Package elastic is the control plane that closes the paper's
// estimate → allocate → re-code loop on a *live* cluster. The paper assumes
// worker throughputs c_i "can be estimated by sampling" (§III.C) and §V
// motivates the group-based scheme with exactly the failure mode this package
// removes: estimates drift. The Controller ingests per-iteration worker
// telemetry, maintains count-gated EWMA throughput estimates, watches two
// replan triggers — drift (the running strategy's predicted makespan falls
// too far from optimal) and churn (membership changed: a worker joined, died
// or rejoined) — and, when either fires, builds a fresh strategy over the
// live membership as an epoch-versioned Plan. Epochs make migration atomic:
// the runtime tags parameter broadcasts and gradient uploads with the plan
// epoch and rejects stale-epoch uploads before they can reach decode.
//
// The Controller is deliberately transport-agnostic: the TCP runtime
// (internal/runtime) and the deterministic churn simulator (internal/sim)
// drive the same code, so the whole control loop is testable without
// sockets.
package elastic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/estimate"
	"github.com/hetgc/hetgc/internal/partition"
	"github.com/hetgc/hetgc/internal/planner"
)

// Errors returned by the control plane.
var (
	// ErrBadConfig marks invalid controller configurations.
	ErrBadConfig = errors.New("elastic: invalid config")
	// ErrUnknownMember is returned for observations about members never added.
	ErrUnknownMember = errors.New("elastic: unknown member")
	// ErrNotEnoughMembers is returned by Replan when the live membership
	// cannot support any strategy (fewer than s+1 alive workers, or fewer
	// than k under a fixed-shape scheme).
	ErrNotEnoughMembers = errors.New("elastic: not enough alive members to plan")
)

// Config parameterises a Controller.
type Config struct {
	// K is the data-partition count, S the straggler budget. Both are fixed
	// across migrations (partitions are global, stable indices — only their
	// placement moves between epochs).
	K, S int
	// Scheme is the strategy family to build, any of the five (default
	// core.HeterAware). A fixed-shape scheme (core.Kind.FixedShape) plans
	// over the first K alive members, one slot per partition, and replans
	// only when churn changes those K: its code does not depend on the
	// estimates, so it never drifts.
	Scheme core.Kind
	// Alpha is the EWMA smoothing factor for throughput estimates
	// (default 0.3); estimate.Meter's clip lets one sample lower an
	// estimate by at most Alpha/2.
	Alpha float64
	// DriftThreshold triggers a replan when the current plan's predicted
	// imbalance exceeds 1+DriftThreshold (default 0.25 — replan when
	// iterations are predicted ≥ 25% slower than the achievable optimum).
	// Above 1/(1−Alpha/2) − 1 (0.18 by default) one stalled sample cannot.
	// +Inf freezes the plan: it then replans on churn only.
	DriftThreshold float64
	// MinObservations gates each member's EWMA: until a member has reported
	// that many iterations of telemetry its prior guess is used (default 3).
	MinObservations int
	// CooldownIters is the minimum number of iterations between drift-driven
	// replans, damping oscillation (default 5). Churn-driven replans are
	// never delayed: a membership change invalidates the plan outright.
	CooldownIters int
	// InitialRate is the prior throughput (partitions/second) for members
	// that joined without a caller-provided guess (default 1).
	InitialRate float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Scheme == 0 {
		out.Scheme = core.HeterAware
	}
	if out.Alpha <= 0 || out.Alpha > 1 {
		out.Alpha = 0.3
	}
	if out.DriftThreshold <= 0 {
		out.DriftThreshold = 0.25
	}
	if out.MinObservations <= 0 {
		out.MinObservations = 3
	}
	if out.CooldownIters <= 0 {
		out.CooldownIters = 5
	}
	if out.InitialRate <= 0 {
		out.InitialRate = 1
	}
	return out
}

// Plan is one epoch of the elastic schedule: a coding strategy over the
// members alive when it was built. Strategy slot i belongs to member
// Members[i]; members outside the plan idle until the next migration.
type Plan struct {
	// Epoch is the monotonically increasing plan version.
	Epoch int
	// Strategy is the coding strategy for this epoch (m = len(Members)).
	Strategy *core.Strategy
	// Members maps strategy slots to stable member IDs.
	Members []int

	slotOf map[int]int
}

// SlotOf returns the strategy slot of a member, or -1 when the member is not
// part of this plan.
func (p *Plan) SlotOf(member int) int {
	if s, ok := p.slotOf[member]; ok {
		return s
	}
	return -1
}

// ReplanEvent records one migration for audit and experiments.
type ReplanEvent struct {
	// Iter is the training iteration at which the plan was built.
	Iter int
	// Epoch is the new plan's version.
	Epoch int
	// Reason is "initial", "churn" or "drift".
	Reason string
	// Members is the number of workers in the new plan.
	Members int
	// Imbalance is the old plan's predicted imbalance at decision time
	// (0 for the initial plan).
	Imbalance float64
}

type memberState struct {
	id    int
	meter *estimate.Meter
	alive bool
}

// Controller tracks membership and telemetry and owns the epoch-versioned
// plan. Not safe for concurrent use; drive it from a single control loop
// (the runtime master serialises on its iteration loop, the simulator is
// single-threaded).
type Controller struct {
	cfg     Config
	rng     *rand.Rand
	members map[int]*memberState
	order   []int // member IDs in join order — the deterministic iteration order
	plan    *Plan
	churned bool
	// lastReplan is the iteration of the most recent replan, -1 before any.
	lastReplan int
	events     []ReplanEvent
	// epochBase floors the next plan's epoch (SetEpochBase): a resumed
	// master fences every pre-crash epoch by starting above them.
	epochBase int
	// gain memoises DriftGain between observations and replans while the
	// membership stands (churned unset); 0 marks it stale, a gain is positive.
	gain float64
	// rejoined marks a plan member that died and came back since the plan
	// was built: its new connection holds no assignment, so a fixed-shape
	// plan must be delivered again.
	rejoined bool
}

// NewController validates the config and builds an empty controller; add
// members, observe telemetry, then Replan for the initial plan.
func NewController(cfg Config, rng *rand.Rand) (*Controller, error) {
	c := cfg.withDefaults()
	if c.K <= 0 || c.S < 0 {
		return nil, fmt.Errorf("%w: k=%d s=%d", ErrBadConfig, c.K, c.S)
	}
	switch c.Scheme {
	case core.Naive, core.Cyclic, core.HeterAware, core.GroupBased:
	case core.FractionalRepetition:
		if c.K%(c.S+1) != 0 {
			return nil, fmt.Errorf("%w: %v needs s+1=%d to divide k=%d", ErrBadConfig, c.Scheme, c.S+1, c.K)
		}
	default:
		return nil, fmt.Errorf("%w: %w: unknown scheme %v", ErrBadConfig, planner.ErrBadConfig, c.Scheme)
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: rng required (determinism)", ErrBadConfig)
	}
	return &Controller{
		cfg:        c,
		rng:        rng,
		members:    make(map[int]*memberState),
		lastReplan: -1,
	}, nil
}

// AddMember registers a joining worker with a prior throughput guess
// (partitions/second). When no guess is given (<= 0), the prior is the mean
// of the alive members' current estimates — a joiner is most plausibly
// fleet-average, and a too-low prior would starve it of load, leaving it
// with no partitions, hence no telemetry, hence no way to ever correct the
// estimate. Config.InitialRate is the fallback when no estimates exist yet.
// Re-adding a dead member revives it, keeping its estimate history — the
// rejoin path. Adding an already-alive member is a no-op.
func (ct *Controller) AddMember(id int, prior float64) {
	if ms, ok := ct.members[id]; ok {
		if !ms.alive {
			ms.alive = true
			ct.churned = true
			if ct.plan != nil && ct.plan.SlotOf(id) >= 0 {
				ct.rejoined = true
			}
		}
		return
	}
	if prior <= 0 {
		prior = ct.cfg.InitialRate
		if avg := ct.meanAliveRate(); avg > 0 {
			prior = avg
		}
	}
	ct.members[id] = &memberState{id: id, meter: estimate.NewMeter(ct.cfg.Alpha, prior), alive: true}
	ct.order = append(ct.order, id)
	ct.churned = true
}

// meanAliveRate averages the alive members' current rate estimates
// (0 when there are none).
func (ct *Controller) meanAliveRate() float64 {
	sum, n := 0.0, 0
	for _, id := range ct.order {
		if ms := ct.members[id]; ms.alive {
			sum += ms.meter.Rate(ct.cfg.MinObservations)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RemoveMember marks a worker dead (connection lost or kill event). Its
// estimate history is kept so a rejoin resumes warm.
func (ct *Controller) RemoveMember(id int) {
	ms, ok := ct.members[id]
	if !ok || !ms.alive {
		return
	}
	ms.alive = false
	ct.churned = true
}

// AliveMembers returns the alive member IDs in join order.
func (ct *Controller) AliveMembers() []int {
	out := make([]int, 0, len(ct.order))
	for _, id := range ct.order {
		if ct.members[id].alive {
			out = append(out, id)
		}
	}
	return out
}

// Observe ingests one telemetry sample: member id processed `partitions`
// partition gradients in `seconds` of compute time.
func (ct *Controller) Observe(id, partitions int, seconds float64) error {
	ms, ok := ct.members[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownMember, id)
	}
	ct.gain = 0
	return ms.meter.Observe(partitions, seconds)
}

// Rate returns the controller's current throughput estimate for a member
// (the prior until MinObservations samples arrived).
func (ct *Controller) Rate(id int) (float64, error) {
	ms, ok := ct.members[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownMember, id)
	}
	return ms.meter.Rate(ct.cfg.MinObservations), nil
}

// Plan returns the current plan (nil before the first Replan).
func (ct *Controller) Plan() *Plan { return ct.plan }

// Epoch returns the current plan epoch, -1 before the first plan.
func (ct *Controller) Epoch() int {
	if ct.plan == nil {
		return -1
	}
	return ct.plan.Epoch
}

// Events returns the replan history.
func (ct *Controller) Events() []ReplanEvent {
	return append([]ReplanEvent(nil), ct.events...)
}

// Imbalance predicts the current plan's iteration time relative to the
// optimum under the latest estimates (1.0 = balanced). Members of the plan
// that died contribute rate 0 — but death also raises the churn flag, which
// replans regardless.
func (ct *Controller) Imbalance() float64 {
	if ct.plan == nil {
		return 1
	}
	est := make([]float64, len(ct.plan.Members))
	for slot, id := range ct.plan.Members {
		if ms, ok := ct.members[id]; ok && ms.alive {
			est[slot] = ms.meter.Rate(ct.cfg.MinObservations)
		}
	}
	return planner.PredictedImbalance(ct.plan.Strategy, est)
}

// DriftGain predicts how much faster iterations would run under a freshly
// planned allocation versus the current plan, given the latest estimates
// (1.0 = replanning cannot help; exactly 1 under a fixed-shape scheme,
// whose code ignores the estimates). Unlike Imbalance — which compares to the
// continuous optimum that integer load rounding can never reach — the gain
// compares achievable-to-achievable, so it converges to ~1 once the plan
// matches the estimates and cannot oscillate on the rounding floor.
func (ct *Controller) DriftGain() float64 {
	if ct.gain == 0 || ct.churned {
		ct.gain = ct.driftGain()
	}
	return ct.gain
}

func (ct *Controller) driftGain() float64 {
	if ct.plan == nil || ct.cfg.Scheme.FixedShape() {
		return 1
	}
	loads := ct.plan.Strategy.Allocation().Loads
	cur := 0.0
	for slot, id := range ct.plan.Members {
		ms, ok := ct.members[id]
		if !ok || !ms.alive {
			continue
		}
		rate := ms.meter.Rate(ct.cfg.MinObservations)
		if rate <= 0 {
			continue
		}
		if t := float64(loads[slot]) / rate; t > cur {
			cur = t
		}
	}
	alive := ct.AliveMembers()
	est := make([]float64, len(alive))
	for i, id := range alive {
		est[i] = ct.members[id].meter.Rate(ct.cfg.MinObservations)
	}
	// The candidate uses the same proportional allocator the heter-aware
	// builder uses (an approximation for group-based plans).
	candLoads, err := partition.ProportionalLoads(est, ct.cfg.K, ct.cfg.S)
	if err != nil {
		return 1
	}
	cand := 0.0
	for i, n := range candLoads {
		if est[i] <= 0 {
			continue
		}
		if t := float64(n) / est[i]; t > cand {
			cand = t
		}
	}
	if cand <= 0 || cur <= 0 {
		return 1
	}
	return cur / cand
}

// ShouldReplan decides whether to migrate at the given iteration boundary
// and names the trigger: "initial" (no plan yet), "churn" (membership
// changed since the plan was built) or "drift" (a fresh plan is predicted
// to beat the current one by more than the threshold, at least one plan
// member's estimate warmed up, and the cooldown elapsed). A fixed-shape plan
// never drifts, and churn replans it only when at least K members are alive
// and the first K of them are not the plan's members, or one of those
// rejoined; otherwise the plan stands and its dead members are erasures.
func (ct *Controller) ShouldReplan(iter int) (bool, string) {
	if ct.plan == nil {
		return true, "initial"
	}
	if ct.cfg.Scheme.FixedShape() {
		if !ct.churned {
			return false, ""
		}
		alive := ct.AliveMembers()
		if len(alive) >= ct.cfg.K && (ct.rejoined || !slices.Equal(alive[:ct.cfg.K], ct.plan.Members)) {
			return true, "churn"
		}
		return false, ""
	}
	if ct.churned {
		return true, "churn"
	}
	if math.IsInf(ct.cfg.DriftThreshold, 1) {
		return false, "" // a frozen plan: no gain can clear the threshold
	}
	if ct.lastReplan >= 0 && iter-ct.lastReplan < ct.cfg.CooldownIters {
		return false, ""
	}
	warmed := false
	for _, id := range ct.plan.Members {
		if ms, ok := ct.members[id]; ok && ms.meter.Ready(ct.cfg.MinObservations) {
			warmed = true
			break
		}
	}
	if !warmed {
		return false, ""
	}
	if ct.DriftGain() > 1+ct.cfg.DriftThreshold {
		return true, "drift"
	}
	return false, ""
}

// Replan builds the next epoch's plan over the alive membership from the
// current estimates; a fixed-shape scheme plans over the first K alive
// members in join order and leaves the rest idle. On success the new plan
// becomes current, the churn flag clears and the migration is recorded. The
// caller (runtime master or simulator) is responsible for delivering the new
// assignments and fencing stale uploads by epoch.
func (ct *Controller) Replan(iter int, reason string) (*Plan, error) {
	alive := ct.AliveMembers()
	if ct.cfg.Scheme.FixedShape() {
		if len(alive) < ct.cfg.K {
			return nil, fmt.Errorf("%w: %d alive, %v needs k=%d", ErrNotEnoughMembers, len(alive), ct.cfg.Scheme, ct.cfg.K)
		}
		alive = alive[:ct.cfg.K]
	} else if len(alive) < ct.cfg.S+1 {
		return nil, fmt.Errorf("%w: %d alive, need ≥ s+1=%d", ErrNotEnoughMembers, len(alive), ct.cfg.S+1)
	}
	est := make([]float64, len(alive))
	for i, id := range alive {
		est[i] = ct.members[id].meter.Rate(ct.cfg.MinObservations)
	}
	imbalance := 0.0
	if ct.plan != nil {
		imbalance = ct.Imbalance()
	}
	st, err := planner.BuildStrategy(ct.cfg.Scheme, est, ct.cfg.K, ct.cfg.S, ct.rng)
	if err != nil {
		return nil, fmt.Errorf("elastic replan at iter %d: %w", iter, err)
	}
	epoch := ct.epochBase
	if ct.plan != nil && ct.plan.Epoch+1 > epoch {
		epoch = ct.plan.Epoch + 1
	}
	plan := &Plan{
		Epoch:    epoch,
		Strategy: st,
		Members:  alive,
		slotOf:   make(map[int]int, len(alive)),
	}
	for slot, id := range alive {
		plan.slotOf[id] = slot
	}
	ct.plan = plan
	ct.churned = false
	ct.rejoined = false
	ct.gain = 0
	ct.lastReplan = iter
	ct.events = append(ct.events, ReplanEvent{
		Iter: iter, Epoch: epoch, Reason: reason, Members: len(alive), Imbalance: imbalance,
	})
	return plan, nil
}
