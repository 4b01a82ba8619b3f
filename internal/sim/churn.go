// Elastic co-simulation: the deterministic, socket-free counterpart of the
// runtime's ElasticMaster. A seeded churn schedule (speed steps, kills,
// joins) drives the same elastic.Controller the live master uses, so the
// whole telemetry → drift/churn detection → replan → epoch migration loop is
// testable bit-identically — the fixture the live system's behaviour is
// validated against.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/metrics"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
)

// ChurnKind enumerates churn-schedule events.
type ChurnKind int

// Churn event kinds.
const (
	// SpeedStep multiplies a member's true rate by Factor — a machine
	// slowing down (Factor < 1) or recovering (Factor > 1).
	SpeedStep ChurnKind = iota + 1
	// Kill removes a member mid-training.
	Kill
	// Join adds a fresh member with true rate Rate.
	Join
	// Rejoin revives a previously killed member (its estimate history is
	// retained by the control plane).
	Rejoin
)

// String names the event kind.
func (k ChurnKind) String() string {
	switch k {
	case SpeedStep:
		return "speed-step"
	case Kill:
		return "kill"
	case Join:
		return "join"
	case Rejoin:
		return "rejoin"
	default:
		return fmt.Sprintf("ChurnKind(%d)", int(k))
	}
}

// ChurnEvent is one scheduled membership or speed change, applied at the
// boundary before iteration Iter.
type ChurnEvent struct {
	// Iter is the iteration before which the event fires.
	Iter int
	// Kind is the event type.
	Kind ChurnKind
	// Member is the target member ID (SpeedStep, Kill, Rejoin). Ignored for
	// Join, which allocates the next free ID.
	Member int
	// Factor is the SpeedStep rate multiplier.
	Factor float64
	// Rate is the true rate (partitions/second) of a Join, and optionally
	// the new true rate of a Rejoin (0 keeps the old rate).
	Rate float64
}

// ErrBadChurn is returned for invalid elastic-simulation configs/schedules.
var ErrBadChurn = errors.New("sim: invalid churn scenario")

// ElasticSimConfig parameterises a deterministic elastic-control-loop
// simulation.
type ElasticSimConfig struct {
	// K is the partition count, S the straggler budget.
	K, S int
	// Scheme is the strategy family (core.HeterAware default).
	Scheme core.Kind
	// InitialRates are the true speeds (partitions/second) of the initial
	// members, which get IDs 1..len(InitialRates) in order.
	InitialRates []float64
	// Events is the churn schedule (applied in slice order within an
	// iteration boundary).
	Events []ChurnEvent
	// Iterations is the number of BSP iterations to simulate.
	Iterations int
	// Alpha, DriftThreshold, MinObservations, CooldownIters and InitialRate
	// parameterise the control plane (see elastic.Config).
	Alpha           float64
	DriftThreshold  float64
	MinObservations int
	CooldownIters   int
	InitialRate     float64
	// CommOverhead is a fixed per-iteration communication cost in seconds.
	CommOverhead float64
	// Seed drives strategy construction; the simulation has no other
	// randomness, so a fixed seed makes runs bit-identical.
	Seed int64
	// CrashAtIter, when > 0, is the crash injector: the run stops cold
	// before that iteration (no final snapshot, exactly as a killed process
	// would), returning the partial result with Crashed set.
	CrashAtIter int
	// Model, Data and Optimizer — all set or all nil — couple the timing
	// simulation with real optimisation: every iteration decodes the true
	// coded gradient under the live plan (the exact arithmetic the runtime
	// master performs) and applies one optimizer step. Params and optimizer
	// state ride snapshots, so a crash/takeover/resume sequence neither
	// loses nor duplicates a step.
	Model     ml.Model
	Data      *ml.Dataset
	Optimizer ml.Optimizer

	// The composable cluster blocks (see internal/clustercfg). Durability:
	// a non-empty CheckpointDir writes the simulation's control-plane state
	// through a checkpoint.Store — a journal record per iteration and
	// migration plus a snapshot every SnapshotEvery iterations (default 5)
	// carrying the full controller state and the RNG draw count; Resume
	// continues a crashed run bit-identically (the plan is rebuilt by
	// replaying the seeded RNG to its recorded draw position). HA: with
	// CheckpointDir set, a positive LeaseTTL makes the run hold the
	// directory's lease — acquired before any durable write, renewed at
	// every iteration boundary, released on success, and deliberately left
	// to expire on an injected crash (Holder defaults to "sim-root").
	// Telemetry: a non-nil Obs receives the simulation's telemetry through
	// the same helpers (and the same metric families) the live ElasticMaster
	// uses, so a sim scrape and a live scrape are diffable.
	clustercfg.DurabilityConfig
	clustercfg.HAConfig
	clustercfg.TelemetryConfig
	// Wire, when naming a non-raw codec, routes every simulated coded upload
	// through the same quantize→dequantize round trip the live transport
	// performs — so a codec's accuracy effect on training is measurable
	// deterministically, and lossless codecs (delta) are provably
	// bit-identical to a raw run.
	Wire clustercfg.WireConfig
}

// ElasticSimResult aggregates an elastic simulation run.
type ElasticSimResult struct {
	// StartIter is the first simulated iteration (non-zero on a resumed
	// run); Times, Epochs and MemberCounts cover StartIter onward.
	StartIter int
	// Times are per-iteration wall times in seconds.
	Times []float64
	// Epochs is the plan epoch each iteration ran under.
	Epochs []int
	// MemberCounts is the alive membership at each iteration.
	MemberCounts []int
	// Replans is the migration history.
	Replans []elastic.ReplanEvent
	// Crashed reports that the crash injector stopped the run at
	// CrashAtIter.
	Crashed bool
	// Params are the final model parameters (training simulations only).
	Params []float64
	// RootGen is the lease generation the run held (0 without a lease).
	RootGen int
	// Summary summarises Times.
	Summary metrics.Summary
}

// RunElastic simulates the elastic control loop over a churn schedule. It is
// fully deterministic for a given config (bit-identical across runs):
// strategy construction is the only randomness and is driven by Seed.
func RunElastic(cfg ElasticSimConfig) (*ElasticSimResult, error) {
	if len(cfg.InitialRates) == 0 {
		return nil, fmt.Errorf("%w: no initial members", ErrBadChurn)
	}
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("%w: iterations=%d", ErrBadChurn, cfg.Iterations)
	}
	if cfg.CommOverhead < 0 {
		return nil, fmt.Errorf("%w: comm=%v", ErrBadChurn, cfg.CommOverhead)
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("%w: resume requires a checkpoint dir", ErrBadChurn)
	}
	if cfg.CheckpointDir != "" && cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 5
	}
	training := cfg.Model != nil || cfg.Data != nil || cfg.Optimizer != nil
	if training && (cfg.Model == nil || cfg.Data == nil || cfg.Optimizer == nil) {
		return nil, fmt.Errorf("%w: training needs model, data and optimizer together", ErrBadChurn)
	}
	codec := grad.CodecRaw
	if cfg.Wire.Codec != "" {
		var err error
		if codec, err = grad.ParseCodec(cfg.Wire.Codec); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadChurn, err)
		}
	}
	if cfg.LeaseTTL < 0 {
		return nil, fmt.Errorf("%w: lease ttl %v", ErrBadChurn, cfg.LeaseTTL)
	}
	if cfg.LeaseTTL > 0 && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("%w: a lease needs a checkpoint dir to live in", ErrBadChurn)
	}
	var parts []*ml.Dataset
	var params []float64
	if training {
		var err error
		if parts, err = cfg.Data.Split(cfg.K); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadChurn, err)
		}
		params = cfg.Model.InitParams(nil)
	}
	// With checkpointing, the strategy-construction RNG runs over a counting
	// source so its position is serialisable. The wrapped source yields the
	// identical draw sequence, so checkpointing never perturbs the run.
	var src *checkpoint.CountingSource
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.CheckpointDir != "" {
		src = checkpoint.NewCountingSource(cfg.Seed)
		rng = rand.New(src)
	}
	ctrl, err := elastic.NewController(elastic.Config{
		K: cfg.K, S: cfg.S, Scheme: cfg.Scheme,
		Alpha: cfg.Alpha, DriftThreshold: cfg.DriftThreshold,
		MinObservations: cfg.MinObservations, CooldownIters: cfg.CooldownIters,
		InitialRate: cfg.InitialRate,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadChurn, err)
	}
	if src != nil {
		ctrl.SetDrawCounter(src.Draws)
	}

	startIter := 0
	var lease *ha.Lease
	leaveLease := false // an injected crash leaves the lease to expire
	if cfg.LeaseTTL > 0 {
		holder := cfg.Holder
		if holder == "" {
			holder = "sim-root"
		}
		l, err := ha.Acquire(cfg.CheckpointDir, holder, "sim", cfg.LeaseTTL)
		if err != nil {
			return nil, err
		}
		lease = l
		cfg.Obs.OnLease(uint64(l.Gen()))
		defer func() {
			if !leaveLease {
				_ = lease.Release()
			}
		}()
	}
	var store *checkpoint.Store
	var resumedSnap *checkpoint.Snapshot
	if cfg.Resume {
		state, err := checkpoint.Recover(cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
		if snap := state.Snap; snap != nil {
			if snap.Ctrl == nil {
				return nil, fmt.Errorf("%w: snapshot at iter %d carries no controller state", checkpoint.ErrCorrupt, snap.Iter)
			}
			// Reposition the seeded source exactly where it stood before the
			// current plan was built; Restore's strategy reconstruction then
			// consumes the identical draws the original construction did.
			if pl := snap.Ctrl.Plan; pl != nil {
				if err := src.FastForward(pl.DrawsBefore); err != nil {
					return nil, err
				}
			}
			if err := ctrl.Restore(snap.Ctrl); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadChurn, err)
			}
			// The plan rebuild must land exactly on the snapshot's recorded
			// draw position; having consumed more draws than the snapshot
			// saw means the state is inconsistent, and FastForward reports
			// it as an un-rewindable position.
			if err := src.FastForward(snap.Draws); err != nil {
				return nil, err
			}
			startIter = snap.Iter
			resumedSnap = snap
			if training {
				if snap.Params == nil {
					return nil, fmt.Errorf("%w: snapshot at iter %d carries no params", checkpoint.ErrCorrupt, snap.Iter)
				}
				params = append(params[:0], snap.Params...)
				if so, ok := cfg.Optimizer.(ml.StatefulOptimizer); ok && snap.OptVecs != nil {
					if err := so.RestoreOptimizerState(snap.OptVecs, snap.OptStep); err != nil {
						return nil, fmt.Errorf("%w: %v", checkpoint.ErrCorrupt, err)
					}
				}
			}
		}
		if store, err = checkpoint.Reopen(cfg.CheckpointDir); err != nil {
			return nil, err
		}
	} else if cfg.CheckpointDir != "" {
		if store, err = checkpoint.Create(cfg.CheckpointDir); err != nil {
			return nil, err
		}
	}
	if store != nil {
		defer store.Close()
		if lease != nil {
			store.SetGuard(lease.Check)
		}
		store.SetMetrics(cfg.Obs)
	}

	// True member state, keyed by stable member ID. On resume, the schedule
	// prefix (events before startIter) re-derives the true speeds — they are
	// deterministic functions of the config, so they need no snapshot.
	trueRate := make(map[int]float64)
	alive := make(map[int]bool)
	nextID := 1
	aliveCount := func() int {
		n := 0
		for _, a := range alive {
			if a {
				n++
			}
		}
		return n
	}
	for _, r := range cfg.InitialRates {
		if r <= 0 {
			return nil, fmt.Errorf("%w: non-positive initial rate %v", ErrBadChurn, r)
		}
		trueRate[nextID] = r
		alive[nextID] = true
		if startIter == 0 {
			ctrl.AddMember(nextID, 0)
		}
		nextID++
	}
	if startIter > 0 {
		for _, ev := range cfg.Events {
			if ev.Iter >= startIter {
				continue
			}
			switch ev.Kind {
			case SpeedStep:
				trueRate[ev.Member] *= ev.Factor
			case Kill:
				alive[ev.Member] = false
			case Join:
				trueRate[nextID] = ev.Rate
				alive[nextID] = true
				nextID++
			case Rejoin:
				alive[ev.Member] = true
				if ev.Rate > 0 {
					trueRate[ev.Member] = ev.Rate
				}
			}
		}
	}
	if cfg.Resume {
		// Anchor a fresh generation with the resumed state before any
		// appends; a crash during resume re-recovers this exact state. (A
		// run that crashed before its first snapshot anchors the initial
		// state: startIter 0, fresh controller.)
		anchor := &checkpoint.Snapshot{Iter: startIter, Epoch: -1}
		if resumedSnap != nil {
			anchor.Epoch = resumedSnap.Epoch
			anchor.Step = resumedSnap.Step
			anchor.Groups = resumedSnap.Groups
		}
		anchor.Ctrl = ctrl.State()
		anchor.Draws = src.Draws()
		if training {
			anchor.Params = append([]float64(nil), params...)
			if so, ok := cfg.Optimizer.(ml.StatefulOptimizer); ok {
				anchor.OptVecs, anchor.OptStep = so.OptimizerState()
			}
		}
		if err := store.WriteSnapshot(anchor); err != nil {
			return nil, err
		}
	}

	res := &ElasticSimResult{
		StartIter:    startIter,
		Times:        make([]float64, 0, cfg.Iterations),
		Epochs:       make([]int, 0, cfg.Iterations),
		MemberCounts: make([]int, 0, cfg.Iterations),
	}
	if lease != nil {
		res.RootGen = lease.Gen()
	}
	var plan *elastic.Plan
	var cache obs.CacheTracker
	if startIter > 0 {
		plan = ctrl.Plan()
		if plan == nil {
			return nil, fmt.Errorf("%w: resumed at iter %d without a plan", ErrBadChurn, startIter)
		}
	}
	for iter := startIter; iter < cfg.Iterations; iter++ {
		if cfg.CrashAtIter > 0 && iter == cfg.CrashAtIter {
			// Crash injector: stop cold, mid-generation, like a killed
			// process — no goodbye snapshot, a possibly mid-written journal.
			res.Crashed = true
			leaveLease = true
			break
		}
		if lease != nil {
			if err := lease.Renew(); err != nil {
				return nil, fmt.Errorf("iter %d: %w", iter, err)
			}
			cfg.Obs.OnRenewal()
		}
		// Apply the boundary's churn events in schedule order.
		for _, ev := range cfg.Events {
			if ev.Iter != iter {
				continue
			}
			switch ev.Kind {
			case SpeedStep:
				if !alive[ev.Member] {
					return nil, fmt.Errorf("%w: speed-step for absent member %d at iter %d", ErrBadChurn, ev.Member, iter)
				}
				if ev.Factor <= 0 {
					return nil, fmt.Errorf("%w: speed-step factor %v", ErrBadChurn, ev.Factor)
				}
				trueRate[ev.Member] *= ev.Factor
			case Kill:
				if !alive[ev.Member] {
					return nil, fmt.Errorf("%w: kill for absent member %d at iter %d", ErrBadChurn, ev.Member, iter)
				}
				alive[ev.Member] = false
				ctrl.RemoveMember(ev.Member)
				cfg.Obs.OnDeath(0, ev.Member, aliveCount(), iter)
			case Join:
				if ev.Rate <= 0 {
					return nil, fmt.Errorf("%w: join rate %v", ErrBadChurn, ev.Rate)
				}
				trueRate[nextID] = ev.Rate
				alive[nextID] = true
				ctrl.AddMember(nextID, 0)
				cfg.Obs.OnJoin(0, nextID, false, aliveCount(), iter)
				nextID++
			case Rejoin:
				if _, known := trueRate[ev.Member]; !known || alive[ev.Member] {
					return nil, fmt.Errorf("%w: rejoin of member %d at iter %d", ErrBadChurn, ev.Member, iter)
				}
				alive[ev.Member] = true
				if ev.Rate > 0 {
					trueRate[ev.Member] = ev.Rate
				}
				ctrl.AddMember(ev.Member, 0)
				cfg.Obs.OnJoin(0, ev.Member, true, aliveCount(), iter)
			default:
				return nil, fmt.Errorf("%w: unknown event kind %v", ErrBadChurn, ev.Kind)
			}
		}

		// Control decision at the boundary, exactly like the live master.
		replan, reason := ctrl.ShouldReplan(iter)
		if cfg.Obs != nil {
			cfg.Obs.OnDrift(ctrl.DriftGain())
		}
		if replan {
			p, err := ctrl.Replan(iter, reason)
			if err != nil {
				return nil, fmt.Errorf("iter %d: %w", iter, err)
			}
			plan = p
			cfg.Obs.OnReplan(reason, iter, p.Epoch, len(p.Members))
			if store != nil {
				rec := &checkpoint.Record{Kind: checkpoint.KindPlan, Iter: iter, Epoch: p.Epoch,
					Members: append([]int(nil), p.Members...)}
				if err := store.Append(rec); err != nil {
					return nil, err
				}
			}
		}

		// One BSP iteration under the current plan: compute times from true
		// rates, completions replayed in time order, decode at the earliest
		// decodable prefix (the replay loop is shared with the sharded sim).
		st := plan.Strategy
		loads := st.Allocation().Loads
		finish := make([]float64, st.M())
		for slot, id := range plan.Members {
			finish[slot] = float64(loads[slot]) / trueRate[id]
		}
		decodeAt, coeffs, _, ok := replayEarliestDecodable(st, finish)
		if !ok {
			return nil, fmt.Errorf("%w: iter %d undecodable under epoch %d", ErrBadChurn, iter, plan.Epoch)
		}
		iterTime := decodeAt + cfg.CommOverhead
		if training {
			g, err := decodeGradient(st, coeffs, cfg.Model, params, parts, codec)
			if err != nil {
				return nil, fmt.Errorf("iter %d decode: %w", iter, err)
			}
			g.Scale(1 / float64(cfg.Data.N()))
			if err := cfg.Optimizer.Step(params, g); err != nil {
				return nil, fmt.Errorf("iter %d step: %w", iter, err)
			}
		}

		// Telemetry: every plan member with load reports its compute time,
		// like workers uploading MsgTelemetry.
		for slot, id := range plan.Members {
			if loads[slot] <= 0 {
				continue
			}
			if err := ctrl.Observe(id, loads[slot], finish[slot]); err != nil {
				return nil, fmt.Errorf("iter %d observe member %d: %w", iter, id, err)
			}
			if cfg.Obs != nil {
				if rate, err := ctrl.Rate(id); err == nil {
					cfg.Obs.OnEstimate(0, id, rate)
				}
			}
		}

		// Synthetic iteration trace: the same span families the live master
		// stitches from the wire, built from simulated finish times so -trace
		// output of a sim run diffs cleanly against a live run. Members the
		// replay ingested up to the decode point are full child spans; later
		// arrivals are partial straggler erasures, like live rejects.
		if cfg.Obs != nil {
			tr := obs.IterTrace{
				Iter: iter, Epoch: plan.Epoch,
				TraceID: obs.TraceID(uint64(res.RootGen), plan.Epoch, iter),
				Start:   time.Now(),
				Seconds: iterTime,
				Spans: []obs.Span{
					{Phase: obs.PhaseBroadcast, Seconds: cfg.CommOverhead},
					{Phase: obs.PhaseCollect, Seconds: decodeAt},
				},
			}
			for slot, id := range plan.Members {
				if loads[slot] <= 0 {
					continue
				}
				ms := obs.MemberSpan{Member: id, Group: 0, Arrival: finish[slot],
					Spans: []obs.Span{{Phase: obs.PhaseCompute, Seconds: finish[slot]}}}
				if finish[slot] > decodeAt {
					ms.Partial, ms.Reason = true, obs.RStraggler
				}
				tr.Members = append(tr.Members, ms)
			}
			cfg.Obs.OnTrace(tr)
		}

		res.Times = append(res.Times, iterTime)
		res.Epochs = append(res.Epochs, plan.Epoch)
		count := 0
		for _, a := range alive {
			if a {
				count++
			}
		}
		res.MemberCounts = append(res.MemberCounts, count)
		cfg.Obs.OnIteration(plan.Epoch, iterTime)
		cfg.Obs.OnMembers(0, count)
		if cfg.Obs != nil {
			cs := st.DecodeCacheStats()
			cache.Fold(cfg.Obs, st, cs.Hits, cs.Misses)
		}

		if store != nil {
			if err := store.AppendIter(iter, plan.Epoch, iter+1); err != nil {
				return nil, err
			}
			if (iter+1)%cfg.SnapshotEvery == 0 {
				cs := ctrl.State()
				gs := checkpoint.GroupState{Group: 0, Epoch: plan.Epoch}
				for _, ms := range cs.Members {
					gs.Members = append(gs.Members, ms.ID)
				}
				snap := &checkpoint.Snapshot{
					Iter: iter + 1, Epoch: plan.Epoch, Step: iter + 1,
					Draws: src.Draws(), Groups: []checkpoint.GroupState{gs}, Ctrl: cs,
				}
				if training {
					snap.Params = append([]float64(nil), params...)
					if so, ok := cfg.Optimizer.(ml.StatefulOptimizer); ok {
						snap.OptVecs, snap.OptStep = so.OptimizerState()
					}
				}
				if err := store.WriteSnapshot(snap); err != nil {
					return nil, err
				}
			}
		}
	}
	res.Replans = ctrl.Events()
	res.Summary = metrics.Summarize(res.Times)
	if training {
		res.Params = params
	}
	return res, nil
}
