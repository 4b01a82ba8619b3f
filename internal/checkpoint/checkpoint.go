// Package checkpoint is the durable-state subsystem: an epoch-granular
// write-ahead journal plus periodic atomic model snapshots, giving both
// roots in the system — the flat runtime.ElasticMaster and the sharded
// shard.Root — crash-recovery with deterministic resume.
//
// A checkpoint directory holds numbered generations. Generation g is
// anchored by a snapshot file snap-<g>.ckpt (the full model and
// control-plane state at one iteration boundary, written atomically via
// temp-file + rename) and extended by a journal wal-<g>.log (one CRC-framed
// record per durable event after that snapshot: plan migrations, iteration
// completions with the optimizer step count, roster joins and deaths).
// Generation 0 has no snapshot — its journal extends the initial state the
// caller reconstructs from its own config.
//
// Recovery walks the generations from newest to oldest until it finds a
// decodable snapshot, then replays every journal from that generation
// upward: the snapshot restores the model, the journals restore what the
// snapshot cannot know — above all the highest plan epoch ever created,
// which a resumed master must fence (a gradient encoded before the crash
// must never decode into the resumed model). A torn journal tail — the
// record being written when the process died — is expected and tolerated;
// a snapshot that fails its CRC falls back to the previous generation; when
// every snapshot is corrupt, recovery fails with a typed error rather than
// silently restarting from scratch.
//
// All decoding is defensive: truncated, bit-flipped or garbage bytes yield
// errors wrapping ErrCorrupt, never panics (fuzzed by FuzzSnapshot and
// FuzzJournal).
package checkpoint

import (
	"errors"
	"fmt"

	"github.com/hetgc/hetgc/internal/elastic"
)

// Errors returned by the checkpoint subsystem.
var (
	// ErrCorrupt marks undecodable snapshot or journal bytes: CRC mismatch,
	// truncation inside a frame, unknown versions or kinds, impossible field
	// values.
	ErrCorrupt = errors.New("checkpoint: corrupt data")
	// ErrTornTail marks the one corruption shape a crash legitimately
	// produces: the journal's final frame cut short mid-write. It wraps
	// ErrCorrupt; recovery treats it as end-of-log, while any OTHER journal
	// corruption (a CRC mismatch on a fully present frame — bit rot, not a
	// crash) fails recovery typed instead of silently dropping the records
	// after it.
	ErrTornTail = fmt.Errorf("%w: torn tail", ErrCorrupt)
	// ErrNoCheckpoint is returned by Recover when the directory holds no
	// checkpoint state at all (missing, empty, or no recognisable files).
	ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")
	// ErrExists is returned by Create when the directory already holds
	// checkpoint state — resuming over it requires Recover + Reopen, and
	// starting fresh requires an empty directory, so neither is silently
	// overwritten.
	ErrExists = errors.New("checkpoint: directory already holds checkpoint state")
	// ErrClosed is returned on use of a closed store.
	ErrClosed = errors.New("checkpoint: store closed")
	// ErrNeedSnapshot is returned by Append on a reopened store before the
	// resumed state has been snapshotted: a journal record needs a
	// generation anchor to be recoverable.
	ErrNeedSnapshot = errors.New("checkpoint: reopened store needs a snapshot before journal appends")
)

// Snapshot is the durable state at one iteration boundary.
type Snapshot struct {
	// Iter is the next iteration to run on resume (every iteration below it
	// is folded into Params).
	Iter int
	// Epoch is the plan epoch current when the snapshot was taken (-1 before
	// any plan).
	Epoch int
	// Step is the optimizer step count folded into Params.
	Step int
	// Clock is the cumulative training clock in seconds.
	Clock float64
	// Params is the model parameter vector.
	Params []float64
	// OptVecs are the optimizer's state vectors (e.g. SGD momentum velocity,
	// Adam first/second moments), OptStep its internal step counter.
	OptVecs [][]float64
	// OptStep is the optimizer's internal step counter (Adam's t).
	OptStep int
	// Groups carries each roster group's durable summary — the highest plan
	// epoch it ever created, every member ID it ever admitted and its
	// controller state — so epoch fencing, ResumeID reservation and the
	// learned throughput estimates survive journal compaction (older
	// journals are deleted once a snapshot folds them in). The flat root
	// writes one entry, group 0.
	Groups []GroupState
}

// GroupState is one roster group's durable summary inside a snapshot.
type GroupState struct {
	// Group is the coding-group index (0 in the flat runtime).
	Group int
	// Epoch is the highest plan epoch the group had created (-1 for none).
	Epoch int
	// Members are the member IDs the group ever admitted, ascending.
	Members []int
	// Ctrl is the group's control-plane state — membership in join order
	// with each member's throughput estimate — captured so a resumed or
	// promoted root re-plans from real history instead of re-warming its
	// estimators from scratch. It is the snapshot's only controller state.
	// Nil when the group had no members to record.
	Ctrl *elastic.ControllerState
}

// Kind enumerates journal record kinds.
type Kind uint8

// Journal record kinds.
const (
	// KindJoin records a successful member join (or rejoin) in a group's
	// roster.
	KindJoin Kind = iota + 1
	// KindDeath records a member death.
	KindDeath
	// KindPlan records a plan migration: the new epoch and its membership.
	KindPlan
	// KindIter records one completed iteration: the epoch it decoded under
	// and the optimizer step count after it.
	KindIter
)

// String names the record kind.
func (k Kind) String() string {
	switch k {
	case KindJoin:
		return "join"
	case KindDeath:
		return "death"
	case KindPlan:
		return "plan"
	case KindIter:
		return "iter"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Record is one journal entry. Group scopes membership and plan records to
// one coding group (always 0 in the flat runtime); iteration records are
// written by the root and carry group 0.
type Record struct {
	Kind   Kind
	Group  int
	Member int  // KindJoin, KindDeath
	Rejoin bool // KindJoin: the member resumed a previous identity
	Iter   int  // KindPlan, KindIter
	Epoch  int  // KindPlan, KindIter
	Step   int  // KindIter
	// Members is the plan's slot → member mapping (KindPlan).
	Members []int
}

// State is the recovered view of a checkpoint directory.
type State struct {
	// Snap is the newest decodable snapshot, nil when the run crashed before
	// ever snapshotting (journal-only recovery: the caller restarts from its
	// configured initial state, still fenced by the journal's epochs).
	Snap *Snapshot
	// GroupEpochs is the highest plan epoch recorded per group, across the
	// snapshot and every journal from the anchor generation upward. A
	// resumed master's epoch base must exceed its group's entry.
	GroupEpochs map[int]int
	// GroupMembers lists every member ID recorded per group (snapshot
	// membership plus journal joins), ascending — the IDs a resumed roster
	// must reserve so ResumeID handshakes resolve to their old identities.
	GroupMembers map[int][]int
	// LastIter is the highest completed iteration recorded anywhere, Steps
	// the optimizer step count after it. Iterations in (Snap.Iter, LastIter]
	// are re-run on resume: their model updates died with the master.
	LastIter int
	// Steps is the optimizer step count recorded with LastIter.
	Steps int
}

// MaxEpoch returns the highest plan epoch recorded in any group, -1 when no
// plan was ever recorded.
func (st *State) MaxEpoch() int {
	max := -1
	for _, e := range st.GroupEpochs {
		if e > max {
			max = e
		}
	}
	return max
}

// statefulOptimizer is the optimizer-state restore surface
// (ml.StatefulOptimizer, matched structurally so this package needs no ml
// import).
type statefulOptimizer interface {
	OptimizerState() ([][]float64, int)
	RestoreOptimizerState(vecs [][]float64, step int) error
}

// TrainingStart is the recovered starting point of a training loop.
type TrainingStart struct {
	// Params are the snapshot parameters (nil when the snapshot carried
	// none — the caller keeps its configured initial parameters).
	Params []float64
	// Iter is the first iteration to run, Step the optimizer step count
	// already folded into Params, Clock the cumulative training clock.
	Iter, Step int
	Clock      float64
}

// RestoreTraining applies the recovered snapshot's training state — shared
// by every master that can be constructed from a checkpoint. It validates
// the parameter and optimizer-state dimensions against dim and, when the
// optimizer carries state across steps (ml.StatefulOptimizer), restores it.
// A state without a snapshot restores the zero TrainingStart: the caller
// begins from its configured initial state, still fenced by the journal's
// epochs.
func (st *State) RestoreTraining(dim int, optimizer any) (TrainingStart, error) {
	var ts TrainingStart
	snap := st.Snap
	if snap == nil {
		return ts, nil
	}
	if len(snap.Params) > 0 {
		if len(snap.Params) != dim {
			return ts, fmt.Errorf("snapshot has %d params, model wants %d", len(snap.Params), dim)
		}
		ts.Params = append([]float64(nil), snap.Params...)
	}
	ts.Iter = snap.Iter
	ts.Step = snap.Step
	ts.Clock = snap.Clock
	if so, ok := optimizer.(statefulOptimizer); ok && len(snap.OptVecs) > 0 {
		for _, v := range snap.OptVecs {
			if len(v) != dim {
				return ts, fmt.Errorf("snapshot optimizer state dim %d, model wants %d", len(v), dim)
			}
		}
		if err := so.RestoreOptimizerState(snap.OptVecs, snap.OptStep); err != nil {
			return ts, fmt.Errorf("optimizer restore: %v", err)
		}
	}
	return ts, nil
}
