// Control-plane state capture and restore: the pieces of a Controller a
// checkpoint must carry so a crashed root can be reconstructed — membership
// in join order and each member's throughput estimate. A resumed root
// restores every member as dead-awaiting-rejoin (their warm meters become
// the planning priors when they reconnect with their old ResumeID) and
// raises the epoch base above every epoch the journal ever recorded, so
// gradient uploads encoded before the crash are fenced by the ordinary
// stale-epoch check. The plan itself is not captured: it is a function of
// the estimates, and the first replan after resume rebuilds it.
package elastic

import (
	"fmt"
	"sort"

	"github.com/hetgc/hetgc/internal/estimate"
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

// ControllerState is the serialisable control-plane snapshot.
type ControllerState struct {
	// Members lists every member ever seen, in join order (join order is the
	// controller's deterministic iteration order, so it must survive).
	Members []MemberState
	// LastReplan is the iteration of the most recent replan (-1 before any).
	LastReplan int
	// Events is the replan history up to the capture.
	Events []ReplanEvent
}

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
// needs membership and estimates, not the full audit trail, and an unbounded
// history would grow every snapshot of a long churny run linearly with its
// age.
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

// Restore revives a freshly constructed controller from a captured state:
// members with their meter state in join order, and no plan until the next
// Replan.
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
	return nil
}
