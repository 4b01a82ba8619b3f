// Control-plane state capture and restore: the pieces of a Controller a
// checkpoint must carry so a crashed master can be reconstructed. Two
// fidelity levels share one mechanism:
//
//   - The live runtimes snapshot membership and throughput estimates only.
//     A resumed master restores every member as dead-awaiting-rejoin (their
//     warm meters become the planning priors when they reconnect with their
//     old ResumeID) and raises the epoch base above every epoch the journal
//     ever recorded, so gradient uploads encoded before the crash are fenced
//     by the ordinary stale-epoch check.
//   - A controller with a draw counter (SetDrawCounter) additionally
//     snapshots the current plan's provenance — the estimates it was built
//     from and the RNG draw count consumed before it was built. Because
//     strategy construction is the control plane's only randomness,
//     replaying the seeded source to DrawsBefore and rebuilding from the
//     recorded estimates reproduces the plan bit-for-bit. No production
//     caller sets a draw counter: only this package's tests use this level.
package elastic

import (
	"fmt"
	"sort"

	"github.com/hetgc/hetgc/internal/estimate"
	"github.com/hetgc/hetgc/internal/planner"
)

// MemberState is one member's serialisable control-plane state.
type MemberState struct {
	// ID is the stable member ID.
	ID int
	// Alive records whether the member was alive at capture time. A live
	// resume forces it false — every connection died with the master.
	Alive bool
	// Meter is the member's throughput-estimator state.
	Meter estimate.MeterState
}

// PlanState is the provenance needed to rebuild the current plan exactly:
// the inputs of the strategy construction plus the RNG position before it
// ran. Captured only when the controller has a draw counter (SetDrawCounter),
// because without one the RNG cannot be repositioned.
type PlanState struct {
	// Iter is the iteration the plan was built at (the cooldown anchor).
	Iter int
	// Epoch is the plan's version.
	Epoch int
	// Members maps strategy slots to member IDs.
	Members []int
	// Est are the throughput estimates the strategy was built from, aligned
	// with Members.
	Est []float64
	// DrawsBefore is the seeded source's draw count immediately before the
	// strategy construction consumed from it.
	DrawsBefore uint64
}

// ControllerState is the serialisable control-plane snapshot.
type ControllerState struct {
	// Members lists every member ever seen, in join order (join order is the
	// controller's deterministic iteration order, so it must survive).
	Members []MemberState
	// LastReplan is the iteration of the most recent replan (-1 before any).
	LastReplan int
	// Plan, when set, allows bit-identical plan reconstruction (only with a
	// draw counter; nil in live snapshots).
	Plan *PlanState
	// Events is the replan history up to the capture.
	Events []ReplanEvent
}

// SetDrawCounter hands the controller a view of its RNG source's draw
// count. With a counter set, Replan records the draw position before each
// strategy construction and State includes the PlanState needed for exact
// reconstruction.
func (ct *Controller) SetDrawCounter(draws func() uint64) { ct.draws = draws }

// SetEpochBase raises the floor for the next plan's epoch. A resumed master
// sets it above every epoch its journal ever recorded, so plans built after
// the restart can never collide with — and are never older than — uploads
// encoded before the crash.
func (ct *Controller) SetEpochBase(epoch int) {
	if epoch > ct.epochBase {
		ct.epochBase = epoch
	}
}

// maxStateEvents bounds the replan history carried in a snapshot: recovery
// needs membership, estimates and plan provenance, not the full audit
// trail, and an unbounded history would grow every snapshot of a long
// churny run linearly with its age.
const maxStateEvents = 64

// State captures the controller for a checkpoint snapshot. The returned
// state shares nothing with the controller. The replan history is capped at
// its most recent maxStateEvents entries.
func (ct *Controller) State() *ControllerState {
	events := ct.Events()
	if len(events) > maxStateEvents {
		events = events[len(events)-maxStateEvents:]
	}
	st := &ControllerState{
		Members:    make([]MemberState, 0, len(ct.order)),
		LastReplan: ct.lastReplan,
		Events:     events,
	}
	for _, id := range ct.order {
		ms := ct.members[id]
		st.Members = append(st.Members, MemberState{ID: id, Alive: ms.alive, Meter: ms.meter.State()})
	}
	if ct.draws != nil && ct.planState != nil {
		p := *ct.planState
		p.Members = append([]int(nil), ct.planState.Members...)
		p.Est = append([]float64(nil), ct.planState.Est...)
		st.Plan = &p
	}
	return st
}

// RestoreDead revives a freshly constructed controller as a resumed live
// master needs it: the snapshot's members (snap may be nil) in join order
// with their warm meters, then the journal-only joiners — IDs of journal the
// snapshot never saw — with cold priors. Everyone starts dead: their
// connections died with the crashed master, and rejoining via ResumeID
// revives them. It returns the restored member IDs, ascending — the IDs the
// roster must reserve.
func (ct *Controller) RestoreDead(snap *ControllerState, journal []int) ([]int, error) {
	st := ControllerState{LastReplan: -1}
	seen := make(map[int]bool)
	var ids []int
	if snap != nil {
		st.Events = snap.Events
		for _, ms := range snap.Members {
			ms.Alive = false
			st.Members = append(st.Members, ms)
			seen[ms.ID] = true
			ids = append(ids, ms.ID)
		}
	}
	for _, id := range journal {
		if !seen[id] {
			st.Members = append(st.Members, MemberState{ID: id})
			ids = append(ids, id)
		}
	}
	if err := ct.Restore(&st); err != nil {
		return nil, err
	}
	sort.Ints(ids)
	return ids, nil
}

// Restore revives a freshly constructed controller from a captured state.
// Members are restored with their meter state in join order; when st.Plan is
// set the current plan is rebuilt by re-running the strategy construction
// over the recorded estimates — the caller must have positioned the
// controller's RNG source at Plan.DrawsBefore first (see PlanState).
func (ct *Controller) Restore(st *ControllerState) error {
	if len(ct.members) != 0 || ct.plan != nil {
		return fmt.Errorf("%w: restore requires a fresh controller", ErrBadConfig)
	}
	if st == nil {
		return fmt.Errorf("%w: nil controller state", ErrBadConfig)
	}
	for _, ms := range st.Members {
		if ms.ID <= 0 {
			return fmt.Errorf("%w: restored member id %d", ErrBadConfig, ms.ID)
		}
		if _, dup := ct.members[ms.ID]; dup {
			return fmt.Errorf("%w: duplicate restored member %d", ErrBadConfig, ms.ID)
		}
		meter := ms.Meter
		if meter.Prior <= 0 {
			// Journal-only members carry no estimate; plan them at the
			// configured prior until telemetry corrects it.
			meter.Prior = ct.cfg.InitialRate
		}
		ct.members[ms.ID] = &memberState{
			id:    ms.ID,
			meter: estimate.NewMeterFromState(ct.cfg.Alpha, meter),
			alive: ms.Alive,
		}
		ct.order = append(ct.order, ms.ID)
	}
	ct.lastReplan = st.LastReplan
	ct.events = append([]ReplanEvent(nil), st.Events...)
	ct.gain = 0
	if st.Plan == nil {
		return nil
	}
	p := st.Plan
	if len(p.Members) != len(p.Est) || len(p.Members) == 0 {
		return fmt.Errorf("%w: plan state has %d members but %d estimates", ErrBadConfig, len(p.Members), len(p.Est))
	}
	for _, id := range p.Members {
		ms, ok := ct.members[id]
		if !ok || !ms.alive {
			return fmt.Errorf("%w: plan member %d absent or dead in restored membership", ErrBadConfig, id)
		}
	}
	strat, err := planner.BuildStrategy(ct.cfg.Scheme, p.Est, ct.cfg.K, ct.cfg.S, ct.rng)
	if err != nil {
		return fmt.Errorf("%w: rebuilding plan epoch %d: %v", ErrBadConfig, p.Epoch, err)
	}
	plan := &Plan{
		Epoch:    p.Epoch,
		Strategy: strat,
		Members:  append([]int(nil), p.Members...),
		slotOf:   make(map[int]int, len(p.Members)),
	}
	for slot, id := range plan.Members {
		plan.slotOf[id] = slot
	}
	ct.plan = plan
	ct.planState = &PlanState{
		Iter: p.Iter, Epoch: p.Epoch,
		Members:     append([]int(nil), p.Members...),
		Est:         append([]float64(nil), p.Est...),
		DrawsBefore: p.DrawsBefore,
	}
	ct.churned = false
	return nil
}
