// Package sim is the discrete-event cluster simulator standing in for the
// paper's QingCloud testbed. Its one iteration loop, RunElastic, is the
// deterministic, socket-free counterpart of the runtime's ElasticMaster: it
// drives the same elastic.Controller, so every scheme is planned by the same
// planner.BuildStrategy call the live master makes. It reproduces the
// quantities the evaluation measures — per-iteration makespan (Figs. 2–3),
// computing-resource usage (Fig. 5) and, with a real model, training loss
// against simulated wall-clock (Fig. 4) — and the paper's figures run it with
// no churn on a plan frozen at its initial build.
//
// Per iteration, plan member i needs n_i/c_i seconds of compute (its
// partitions over its true rate in partitions/second), scaled by mean-one
// lognormal jitter, plus any injected straggler delay; a dead member never
// arrives. The master replays arrivals in time order and finishes the
// iteration at the first prefix that decodes, plus a fixed communication
// overhead; an iteration no prefix decodes fails. One seeded stream drives
// all randomness: the plan first, then each iteration's straggler delays,
// then one jitter draw per plan member in slot order.
//
// A seeded churn schedule (speed steps, kills, joins) exercises the whole
// telemetry → drift/churn detection → replan → epoch migration loop
// bit-identically, with durable checkpoints and lease failover — the fixture
// the live system's behaviour is validated against. RunSharded runs the same
// replay per coding group of the sharded hierarchy, and RunSSP is Fig. 4's
// stale-synchronous baseline.
package sim

import (
	"errors"
	"fmt"
	"math"
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
	"github.com/hetgc/hetgc/internal/straggler"
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

// ErrBadChurn is returned for invalid simulation configs and schedules.
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
	// Estimates, when set, are the initial members' prior speed estimates
	// (partitions/second, aligned with InitialRates) the initial plan is
	// built from; nil gives every initial member the InitialRate prior.
	Estimates []float64
	// Events is the churn schedule (applied in slice order within an
	// iteration boundary).
	Events []ChurnEvent
	// Injector adds per-iteration straggler delays, indexed by member ID-1;
	// nil means none. A member with an infinite delay never arrives.
	Injector straggler.Injector
	// Iterations is the number of BSP iterations to simulate.
	Iterations int
	// FluctuationStd is the sigma of the mean-one lognormal jitter on every
	// plan member's compute time; 0 disables it.
	FluctuationStd float64
	// Alpha, DriftThreshold, MinObservations, CooldownIters and InitialRate
	// parameterise the control plane (see elastic.Config). DriftThreshold
	// +Inf freezes a heter-aware or group-based plan between churn replans.
	Alpha           float64
	DriftThreshold  float64
	MinObservations int
	CooldownIters   int
	InitialRate     float64
	// CommOverhead is a fixed per-iteration communication cost in seconds.
	CommOverhead float64
	// Seed starts the run's one random stream: plan construction, then each
	// iteration's straggler delays, then its jitter. A fixed seed makes runs
	// bit-identical.
	Seed int64
	// Rng, when set, is that stream in place of a fresh one from Seed, for a
	// caller that chains several runs on one stream. Such a run cannot
	// checkpoint: resume needs the stream's draw count.
	Rng *rand.Rand
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
	// RecordEvery, when training, records the training loss in the result's
	// Loss series before the first iteration and after every RecordEvery-th;
	// 0 records none.
	RecordEvery int

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
	// Times are per-iteration wall times in seconds, +Inf for an iteration
	// no prefix of arrivals could decode.
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
	// Failed counts the iterations that could not decode.
	Failed int
	// Usage is the Fig. 5 computing-resource usage over the decoded
	// iterations: Σ busy time / Σ wall time across plan members.
	Usage float64
	// Params are the final model parameters (training simulations only).
	Params []float64
	// Loss is the training loss against simulated seconds since StartIter
	// (training simulations with RecordEvery only).
	Loss metrics.Series
	// RootGen is the lease generation the run held (0 without a lease).
	RootGen int
	// Summary summarises the finite Times.
	Summary metrics.Summary
}

// AvgIterTime returns the mean over finite iteration times, or +Inf when
// every iteration failed.
func (r *ElasticSimResult) AvgIterTime() float64 {
	if r.Summary.Count == 0 {
		return math.Inf(1)
	}
	return r.Summary.Mean
}

// RunElastic simulates the elastic control loop over a churn schedule. It is
// fully deterministic for a given config (bit-identical across runs): every
// random draw comes from the one stream Seed starts.
func RunElastic(cfg ElasticSimConfig) (*ElasticSimResult, error) {
	if len(cfg.InitialRates) == 0 {
		return nil, fmt.Errorf("%w: no initial members", ErrBadChurn)
	}
	if cfg.Estimates != nil && len(cfg.Estimates) != len(cfg.InitialRates) {
		return nil, fmt.Errorf("%w: %d estimates for %d initial members", ErrBadChurn, len(cfg.Estimates), len(cfg.InitialRates))
	}
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("%w: iterations=%d", ErrBadChurn, cfg.Iterations)
	}
	if cfg.CommOverhead < 0 || cfg.FluctuationStd < 0 || cfg.RecordEvery < 0 {
		return nil, fmt.Errorf("%w: comm=%v fluctuation=%v record-every=%d", ErrBadChurn, cfg.CommOverhead, cfg.FluctuationStd, cfg.RecordEvery)
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("%w: resume requires a checkpoint dir", ErrBadChurn)
	}
	if cfg.Rng != nil && cfg.CheckpointDir != "" {
		return nil, fmt.Errorf("%w: a run on a caller's rng cannot checkpoint", ErrBadChurn)
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
	// The stream runs over a counting source so its position is
	// serialisable: a snapshot records it, and resume fast-forwards to it.
	// The wrapped source yields the identical draw sequence.
	var src *checkpoint.CountingSource
	rng := cfg.Rng
	if rng == nil {
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
		return nil, fmt.Errorf("%w: %w", ErrBadChurn, err)
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
	for i, r := range cfg.InitialRates {
		prior := 0.0 // the controller's InitialRate
		if cfg.Estimates != nil {
			prior = cfg.Estimates[i]
		}
		if r <= 0 || (cfg.Estimates != nil && prior <= 0) {
			return nil, fmt.Errorf("%w: initial member %d: rate %v, estimate %v", ErrBadChurn, nextID, r, prior)
		}
		trueRate[nextID] = r
		alive[nextID] = true
		if startIter == 0 {
			ctrl.AddMember(nextID, prior)
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
	finite := make([]float64, 0, cfg.Iterations)
	var usage metrics.UsageTally
	clock := 0.0 // simulated seconds since StartIter
	recordLoss := func(at float64) error {
		l, err := ml.MeanLoss(cfg.Model, params, cfg.Data)
		if err != nil {
			return err
		}
		res.Loss.Append(at, l)
		return nil
	}
	if training && cfg.RecordEvery > 0 {
		if err := recordLoss(0); err != nil {
			return nil, err
		}
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

		// One BSP iteration under the current plan. The stream draws the
		// straggler delays, then one jitter per plan member in slot order. A
		// member finishes its compute plus its delay, and a dead one (a
		// fixed-shape plan stands below K alive) never does. Completions
		// replay in time order and decode at the earliest decodable prefix
		// (the replay loop is shared with the sharded sim).
		var delays []float64
		if cfg.Injector != nil {
			delays = cfg.Injector.Delays(iter, nextID-1, rng)
		}
		st := plan.Strategy
		loads := st.Allocation().Loads
		compute := make([]float64, st.M())
		finish := make([]float64, st.M())
		for slot, id := range plan.Members {
			compute[slot] = float64(loads[slot]) / trueRate[id]
			if sigma := cfg.FluctuationStd; sigma > 0 {
				// Mean-one lognormal: exp(sigma·z − sigma²/2).
				compute[slot] *= math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
			}
			finish[slot] = compute[slot] + delayOf(delays, id)
			if !alive[id] {
				finish[slot] = math.Inf(1)
			}
		}
		decodeAt, coeffs, _, ok := replayEarliestDecodable(st, finish)
		iterTime := math.Inf(1)
		switch {
		case ok:
			iterTime = decodeAt + cfg.CommOverhead
			finite = append(finite, iterTime)
			// Fig. 5 accounting: the decode point is the barrier; a member
			// is busy for the part of its compute that fits between its
			// delay and the barrier, out of the iteration's wall time.
			barrier := iterTime - cfg.CommOverhead
			for slot, id := range plan.Members {
				d := delayOf(delays, id)
				window := barrier - d
				if window < 0 || math.IsInf(d, 1) || !alive[id] {
					window = 0
				}
				usage.Add(math.Min(compute[slot], window), iterTime)
			}
		case training:
			return nil, fmt.Errorf("%w: iter %d undecodable under epoch %d", ErrBadChurn, iter, plan.Epoch)
		default:
			res.Failed++
		}
		if training {
			g, err := decodeGradient(st, coeffs, cfg.Model, params, parts, codec)
			if err != nil {
				return nil, fmt.Errorf("iter %d decode: %w", iter, err)
			}
			g.Scale(1 / float64(cfg.Data.N()))
			if err := cfg.Optimizer.Step(params, g); err != nil {
				return nil, fmt.Errorf("iter %d step: %w", iter, err)
			}
			clock += iterTime
			if cfg.RecordEvery > 0 && (iter+1)%cfg.RecordEvery == 0 {
				if err := recordLoss(clock); err != nil {
					return nil, err
				}
			}
		}

		// Telemetry: every arriving plan member with load reports its
		// finish time, like workers uploading MsgTelemetry (injected delay
		// counts as compute, because that is what the master observes). A
		// member that never arrives contributes no sample.
		for slot, id := range plan.Members {
			if loads[slot] <= 0 || math.IsInf(finish[slot], 1) {
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
		// arrivals are partial straggler erasures, like live rejects, and a
		// member that never arrives is a partial dead span.
		if cfg.Obs != nil && ok {
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
				switch {
				case math.IsInf(finish[slot], 1):
					ms = obs.MemberSpan{Member: id, Group: 0, Partial: true, Reason: obs.RDead}
				case finish[slot] > decodeAt:
					ms.Partial, ms.Reason = true, obs.RStraggler
				}
				tr.Members = append(tr.Members, ms)
			}
			cfg.Obs.OnTrace(tr)
			cfg.Obs.OnIteration(plan.Epoch, iterTime)
		}

		res.Times = append(res.Times, iterTime)
		res.Epochs = append(res.Epochs, plan.Epoch)
		count := aliveCount()
		res.MemberCounts = append(res.MemberCounts, count)
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
	res.Usage = usage.Usage()
	res.Summary = metrics.Summarize(finite)
	if training {
		res.Params = params
	}
	return res, nil
}

// decodeGradient reproduces the full coding path with real gradients: each
// contributing worker computes its partition gradients, encodes them with
// its row of B (g̃_w = Σ_j B[w][j]·g_j), and the master combines the coded
// gradients with the decoding coefficients (g = Σ_w a_w·g̃_w). Partition
// gradients are computed once and shared across workers. A non-raw codec
// round-trips every coded upload through quantize→dequantize, exactly as the
// wire would.
func decodeGradient(st *core.Strategy, coeffs []float64, model ml.Model, params []float64, parts []*ml.Dataset, codec grad.Codec) (grad.Gradient, error) {
	partGrad := make(map[int]grad.Gradient)
	partial := func(p int) (grad.Gradient, error) {
		if g, ok := partGrad[p]; ok {
			return g, nil
		}
		g, err := model.Gradient(params, parts[p])
		if err != nil {
			return nil, err
		}
		partGrad[p] = g
		return g, nil
	}
	coded := make([]grad.Gradient, st.M())
	defer func() {
		for _, c := range coded {
			grad.PutBuffer(c)
		}
	}()
	alloc := st.Allocation()
	var partials []grad.Gradient
	var rowCoeffs []float64
	// A worker with an empty allocation (an elastic plan can assign zero
	// load to a very slow member) uploads the zero vector in the live
	// runtime; its contribution is exactly zero, so drop its coefficient
	// instead of encoding an empty combination.
	use := coeffs
	for w, a := range coeffs {
		if a != 0 && len(alloc.Parts[w]) == 0 {
			use = append([]float64(nil), coeffs...)
			for v := range use {
				if len(alloc.Parts[v]) == 0 {
					use[v] = 0
				}
			}
			break
		}
	}
	coeffs = use
	for w, a := range coeffs {
		if a == 0 {
			continue
		}
		row := st.Row(w)
		partials, rowCoeffs = partials[:0], rowCoeffs[:0]
		for _, p := range alloc.Parts[w] {
			g, err := partial(p)
			if err != nil {
				return nil, err
			}
			partials = append(partials, g)
			rowCoeffs = append(rowCoeffs, row[p])
		}
		enc := grad.GetBuffer(model.Dim())
		if err := grad.EncodeInto(enc, rowCoeffs, partials); err != nil {
			grad.PutBuffer(enc)
			return nil, err
		}
		if codec != grad.CodecRaw {
			q, err := grad.AppendQuantized(grad.GetBytes(8*len(enc)), codec, enc)
			if err != nil {
				grad.PutBuffer(enc)
				return nil, err
			}
			dec, err := grad.Dequantize(codec, q, len(enc))
			grad.PutBytes(q)
			if err != nil {
				grad.PutBuffer(enc)
				return nil, err
			}
			copy(enc, dec)
		}
		coded[w] = enc
	}
	return grad.Combine(coeffs, coded, model.Dim())
}
