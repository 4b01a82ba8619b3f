// Package sim is the discrete-event cluster simulator standing in for the
// paper's QingCloud testbed. Its one iteration loop, RunElastic, is the
// deterministic, socket-free counterpart of the live runtimes: it drives the
// same elastic.Controller, so every scheme is planned by the same
// planner.BuildStrategy call the live masters make. It reproduces the
// quantities the evaluation measures — per-iteration makespan (Figs. 2–3),
// computing-resource usage (Fig. 5) and, with a real model, training loss
// against simulated wall-clock (Fig. 4) — and the paper's figures run it with
// no churn on a plan frozen at its initial build.
//
// The loop runs G ≥ 1 coding groups. A flat run is one group, the
// ElasticMaster's counterpart; several groups are the sharded hierarchy's
// (internal/shard): each group decodes its own slice of the partitions under
// its own controller, so drift and churn replan that group alone, and the
// group sums meet at a FanIn-ary reduction tree whose hops every iteration
// pays.
//
// Per iteration, plan member i needs n_i/c_i seconds of compute (its
// partitions over its true rate in partitions/second), scaled by mean-one
// lognormal jitter, plus any injected straggler delay; a dead member never
// arrives. Each group replays its arrivals in time order and decodes at the
// first prefix that can; the iteration ends when the slowest group's sum
// reaches the root, plus a fixed communication overhead, and an iteration
// some group cannot decode fails. The run's stream from Seed draws each
// iteration's straggler delays, then one jitter per plan member, group by
// group in slot order. With one group it builds the plans too, first; with
// several, group g plans on its own stream seeded Seed+g+1.
//
// A seeded churn schedule (speed steps, kills, joins) exercises the whole
// telemetry → drift/churn detection → replan → epoch migration loop
// bit-identically. The simulator keeps no durable state: checkpoints, leases
// and crash recovery belong to the live roots alone (internal/rootcore).
// RunSSP is Fig. 4's stale-synchronous baseline.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/metrics"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/shard"
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
	// K is the partition count, S the straggler budget (per coding group).
	K, S int
	// Scheme is the strategy family (core.HeterAware default). A fixed-shape
	// scheme needs one member per partition, which a capacity-split group
	// does not have, so it runs in one group only.
	Scheme core.Kind
	// InitialRates are the true speeds (partitions/second) of the initial
	// members, which get IDs 1..len(InitialRates) in order.
	InitialRates []float64
	// Estimates, when set, are the initial members' prior speed estimates
	// (partitions/second, aligned with InitialRates) the initial plans and
	// the group layout are built from; nil gives every initial member the
	// InitialRate prior.
	Estimates []float64
	// Events is the churn schedule (applied in slice order within an
	// iteration boundary). Member IDs are fleet-wide: an event goes to the
	// member's group, and a Join to the group with the fewest alive members.
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
	// parameterise every group's control plane (see elastic.Config).
	// DriftThreshold +Inf freezes a heter-aware or group-based plan between
	// churn replans.
	Alpha           float64
	DriftThreshold  float64
	MinObservations int
	CooldownIters   int
	InitialRate     float64
	// GroupSize is the target members per coding group: the initial fleet is
	// split by shard.BuildPlanLayout over its priors, and every group decodes
	// its own slice of the partitions under its own controller, as a group
	// master of the sharded runtime does. 0, or at least the fleet size, is
	// one group: the flat runtime. FanIn is the arity of the reduction tree
	// over the groups (default 4).
	GroupSize, FanIn int
	// HopSeconds is the latency of one reduction-tree hop: each iteration
	// pays Depth·HopSeconds of aggregation time. Frame batching is what keeps
	// this per-hop, not per-chunk: a group's whole upload is one coalesced
	// write.
	HopSeconds float64
	// IngestSeconds is the master-side cost of receiving and processing one
	// gradient upload — the fan-in bottleneck that caps flat deployments. A
	// group's master pays it for every upload it ingested up to its decode
	// (groups ingest in parallel), and each reduction-tree node for at most
	// FanIn coalesced frames per hop. 0 disables the model.
	IngestSeconds float64
	// CommOverhead is a fixed per-iteration communication cost in seconds.
	CommOverhead float64
	// Seed starts the run's stream: each iteration's straggler delays, then
	// its jitter. With one group the stream builds the plans too, first; with
	// several, group g plans on its own stream seeded Seed+g+1. A fixed seed
	// makes runs bit-identical.
	Seed int64
	// Rng, when set, is the one-group stream in place of a fresh one from
	// Seed, for a caller that chains several runs on one stream.
	Rng *rand.Rand
	// Model, Data and Optimizer — all set or all nil — couple the timing
	// simulation with real optimisation: every iteration decodes the true
	// coded gradient under the live plan (the exact arithmetic the runtime
	// master performs) and applies one optimizer step.
	Model     ml.Model
	Data      *ml.Dataset
	Optimizer ml.Optimizer
	// RecordEvery, when training, records the training loss in the result's
	// Loss series before the first iteration and after every RecordEvery-th;
	// 0 records none.
	RecordEvery int

	// Telemetry (see internal/clustercfg): a non-nil Obs receives the
	// simulation's telemetry through the same helpers (and the same metric
	// families and group labels) the live runtimes use, so a sim scrape and
	// a live scrape are diffable.
	clustercfg.TelemetryConfig
	// Wire, when naming int8, routes every simulated coded upload through
	// the same quantize→dequantize round trip the live transport performs —
	// so the codec's accuracy effect on training is measurable
	// deterministically.
	Wire clustercfg.WireConfig
}

// GroupReplanEvent is one group-local migration.
type GroupReplanEvent struct {
	// Group is the coding-group index.
	Group int
	elastic.ReplanEvent
}

// ElasticSimResult aggregates an elastic simulation run.
type ElasticSimResult struct {
	// Times are per-iteration wall times in seconds: the slowest group plus
	// the reduction-tree hops and CommOverhead, +Inf for an iteration some
	// group could not decode.
	Times []float64
	// GroupTimes[i][g] is group g's decode time at iteration i, its ingest
	// included, before the tree hops (+Inf when it could not decode).
	GroupTimes [][]float64
	// Epochs[i][g] is the plan epoch group g ran under at iteration i —
	// epochs advance per group, independently.
	Epochs [][]int
	// MemberCounts is the alive membership at each iteration.
	MemberCounts []int
	// Replans is the migration history, by iteration, then group.
	Replans []GroupReplanEvent
	// Groups is the number of coding groups, Depth the reduction-tree depth
	// (0 for one group).
	Groups, Depth int
	// Failed counts the iterations that could not decode.
	Failed int
	// Usage is the Fig. 5 computing-resource usage over the decoded
	// iterations: Σ busy time / Σ wall time across plan members.
	Usage float64
	// Params are the final model parameters (training simulations only).
	Params []float64
	// Loss is the training loss against simulated seconds since the run
	// began (training simulations with RecordEvery only).
	Loss metrics.Series
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

// simGroup is one coding group: its control plane, its plan, and this
// iteration's replay under that plan.
type simGroup struct {
	ctrl  *elastic.Controller
	plan  *elastic.Plan
	cache obs.CacheTracker
	alive int // alive members
	// compute and finish are per plan slot; decodeAt and coeffs are the
	// replay's earliest decodable prefix, valid when decoded.
	compute, finish []float64
	decodeAt        float64
	coeffs          []float64
	decoded         bool
}

// RunElastic simulates the elastic control loop over a churn schedule. It is
// fully deterministic for a given config (bit-identical across runs): every
// random draw comes from the streams Seed starts.
func RunElastic(cfg ElasticSimConfig) (*ElasticSimResult, error) {
	if len(cfg.InitialRates) == 0 {
		return nil, fmt.Errorf("%w: no initial members", ErrBadChurn)
	}
	if cfg.Estimates != nil && len(cfg.Estimates) != len(cfg.InitialRates) {
		return nil, fmt.Errorf("%w: %d estimates for %d initial members", ErrBadChurn, len(cfg.Estimates), len(cfg.InitialRates))
	}
	m := len(cfg.InitialRates)
	priors := cfg.Estimates
	if priors == nil {
		priors = make([]float64, m) // every member on the InitialRate prior
		for i := range priors {
			priors[i] = 1
		}
	}
	for i, r := range cfg.InitialRates {
		if r <= 0 || priors[i] <= 0 {
			return nil, fmt.Errorf("%w: initial member %d: rate %v, estimate %v", ErrBadChurn, i+1, r, priors[i])
		}
	}
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("%w: iterations=%d", ErrBadChurn, cfg.Iterations)
	}
	if cfg.CommOverhead < 0 || cfg.FluctuationStd < 0 || cfg.RecordEvery < 0 || cfg.HopSeconds < 0 || cfg.IngestSeconds < 0 {
		return nil, fmt.Errorf("%w: comm=%v fluctuation=%v record-every=%d hop=%v ingest=%v",
			ErrBadChurn, cfg.CommOverhead, cfg.FluctuationStd, cfg.RecordEvery, cfg.HopSeconds, cfg.IngestSeconds)
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

	// The group layout over the initial priors. Strategies are built by each
	// group's controller at its initial replan.
	groupSize := cfg.GroupSize
	if groupSize <= 0 || groupSize > m {
		groupSize = m
	}
	layout, err := shard.BuildPlanLayout(priors, shard.PlanConfig{K: cfg.K, S: cfg.S, GroupSize: groupSize, FanIn: cfg.FanIn})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadChurn, err)
	}
	if n := layout.NumGroups(); n > 1 {
		if cfg.Scheme.FixedShape() {
			return nil, fmt.Errorf("%w: %v cannot run in capacity-split groups", ErrBadChurn, cfg.Scheme)
		}
		if training || cfg.Rng != nil || cfg.Wire.Codec != "" {
			return nil, fmt.Errorf("%w: %d coding groups simulate timing only: no training, rng or wire codec", ErrBadChurn, n)
		}
	}

	var parts []*ml.Dataset
	var params []float64
	if training {
		if parts, err = cfg.Data.Split(cfg.K); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadChurn, err)
		}
		params = cfg.Model.InitParams(nil)
	}
	rng := cfg.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	groups := make([]*simGroup, layout.NumGroups())
	for g, grp := range layout.Groups {
		planRng := rng
		if len(groups) > 1 {
			planRng = rand.New(rand.NewSource(cfg.Seed + int64(g) + 1))
		}
		ctrl, err := elastic.NewController(elastic.Config{
			K: len(grp.Parts), S: cfg.S, Scheme: cfg.Scheme,
			Alpha: cfg.Alpha, DriftThreshold: cfg.DriftThreshold,
			MinObservations: cfg.MinObservations, CooldownIters: cfg.CooldownIters,
			InitialRate: cfg.InitialRate,
		}, planRng)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadChurn, err)
		}
		groups[g] = &simGroup{ctrl: ctrl}
	}
	// True member state, keyed by stable member ID, and each member's group.
	trueRate := make(map[int]float64)
	alive := make(map[int]bool)
	groupOf := make(map[int]int)
	for g, grp := range layout.Groups {
		for _, w := range grp.Workers {
			id := w + 1
			trueRate[id], alive[id], groupOf[id] = cfg.InitialRates[w], true, g
			groups[g].alive++
			prior := 0.0 // the controller's InitialRate
			if cfg.Estimates != nil {
				prior = cfg.Estimates[w]
			}
			groups[g].ctrl.AddMember(id, prior)
		}
	}
	nextID := m + 1
	// applyChurn routes one event to its member's group.
	applyChurn := func(ev ChurnEvent) error {
		switch ev.Kind {
		case SpeedStep:
			if !alive[ev.Member] {
				return fmt.Errorf("%w: speed-step for absent member %d at iter %d", ErrBadChurn, ev.Member, ev.Iter)
			}
			if ev.Factor <= 0 {
				return fmt.Errorf("%w: speed-step factor %v", ErrBadChurn, ev.Factor)
			}
			trueRate[ev.Member] *= ev.Factor
		case Kill:
			if !alive[ev.Member] {
				return fmt.Errorf("%w: kill for absent member %d at iter %d", ErrBadChurn, ev.Member, ev.Iter)
			}
			sg := groups[groupOf[ev.Member]]
			alive[ev.Member] = false
			sg.alive--
			sg.ctrl.RemoveMember(ev.Member)
			cfg.Obs.OnDeath(groupOf[ev.Member], ev.Member, sg.alive, ev.Iter)
		case Join:
			if ev.Rate <= 0 {
				return fmt.Errorf("%w: join rate %v", ErrBadChurn, ev.Rate)
			}
			// The group with the fewest alive members (lowest index on ties):
			// deterministic load-levelling placement.
			g := 0
			for h, sg := range groups {
				if sg.alive < groups[g].alive {
					g = h
				}
			}
			id := nextID
			nextID++
			trueRate[id], alive[id], groupOf[id] = ev.Rate, true, g
			groups[g].alive++
			groups[g].ctrl.AddMember(id, 0)
			cfg.Obs.OnJoin(g, id, false, groups[g].alive, ev.Iter)
		case Rejoin:
			g, known := groupOf[ev.Member]
			if !known || alive[ev.Member] {
				return fmt.Errorf("%w: rejoin of member %d at iter %d", ErrBadChurn, ev.Member, ev.Iter)
			}
			alive[ev.Member] = true
			groups[g].alive++
			if ev.Rate > 0 {
				trueRate[ev.Member] = ev.Rate
			}
			groups[g].ctrl.AddMember(ev.Member, 0)
			cfg.Obs.OnJoin(g, ev.Member, true, groups[g].alive, ev.Iter)
		default:
			return fmt.Errorf("%w: unknown event kind %v", ErrBadChurn, ev.Kind)
		}
		return nil
	}
	iters := cfg.Iterations
	res := &ElasticSimResult{
		Times:        make([]float64, 0, iters),
		GroupTimes:   make([][]float64, 0, iters),
		Epochs:       make([][]int, 0, iters),
		MemberCounts: make([]int, 0, iters),
		Groups:       len(groups),
		Depth:        layout.Tree.Depth(),
	}
	// The per-group rows of every iteration, carved from one allocation.
	groupTimes := make([]float64, iters*len(groups))
	epochs := make([]int, iters*len(groups))
	// Each reduction-tree hop pays its latency and the ingest of at most
	// FanIn coalesced frames (a group's whole chunked upload is one batched
	// frame); one group feeds the root directly.
	hops := float64(res.Depth) * (cfg.HopSeconds + float64(layout.Tree.FanIn)*cfg.IngestSeconds)
	finite := make([]float64, 0, iters)
	var usage metrics.UsageTally
	clock := 0.0 // simulated seconds since the run began
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
	for iter := 0; iter < cfg.Iterations; iter++ {
		// Apply the boundary's churn events in schedule order.
		for _, ev := range cfg.Events {
			if ev.Iter == iter {
				if err := applyChurn(ev); err != nil {
					return nil, err
				}
			}
		}

		// Control decisions at the boundary, exactly like the live masters:
		// group-local, so a replan in one group leaves every other group's
		// epoch untouched.
		for g, sg := range groups {
			replan, reason := sg.ctrl.ShouldReplan(iter)
			if cfg.Obs != nil {
				cfg.Obs.OnDrift(sg.ctrl.DriftGain())
			}
			if !replan {
				continue
			}
			p, err := sg.ctrl.Replan(iter, reason)
			if err != nil {
				return nil, fmt.Errorf("iter %d group %d: %w", iter, g, err)
			}
			sg.plan = p
			cfg.Obs.OnReplan(reason, iter, p.Epoch, len(p.Members))
		}

		// One BSP iteration per group under its current plan. The stream
		// draws the straggler delays, then one jitter per plan member, group
		// by group in slot order. A member finishes its compute plus its
		// delay, and a dead one (a fixed-shape plan stands below K alive)
		// never does. Completions replay in time order and a group decodes
		// at its earliest decodable prefix; its master ingests every upload
		// that arrived up to that point on one path, charged serially.
		var delays []float64
		if cfg.Injector != nil {
			delays = cfg.Injector.Delays(iter, nextID-1, rng)
		}
		rowTimes, rowEpochs := groupTimes[:len(groups):len(groups)], epochs[:len(groups):len(groups)]
		groupTimes, epochs = groupTimes[len(groups):], epochs[len(groups):]
		slowest, ok := 0.0, true
		for g, sg := range groups {
			st := sg.plan.Strategy
			loads := st.Allocation().Loads
			sg.compute = slices.Grow(sg.compute[:0], st.M())[:st.M()]
			sg.finish = slices.Grow(sg.finish[:0], st.M())[:st.M()]
			for slot, id := range sg.plan.Members {
				sg.compute[slot] = float64(loads[slot]) / trueRate[id]
				if sigma := cfg.FluctuationStd; sigma > 0 {
					// Mean-one lognormal: exp(sigma·z − sigma²/2).
					sg.compute[slot] *= math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
				}
				sg.finish[slot] = sg.compute[slot] + delayOf(delays, id)
				if !alive[id] {
					sg.finish[slot] = math.Inf(1)
				}
			}
			var ingested int
			sg.decodeAt, sg.coeffs, ingested, sg.decoded = replayEarliestDecodable(st, sg.finish)
			rowTimes[g] = math.Inf(1)
			if sg.decoded {
				rowTimes[g] = sg.decodeAt + float64(ingested)*cfg.IngestSeconds
			}
			rowEpochs[g] = sg.plan.Epoch
			slowest = math.Max(slowest, rowTimes[g])
			ok = ok && sg.decoded
		}
		// The barrier: every group's sum must reach the root, so the
		// iteration runs at the slowest group, plus the tree hops.
		iterTime := slowest + hops + cfg.CommOverhead
		switch {
		case ok:
			finite = append(finite, iterTime)
			// Fig. 5 accounting: the root's decode point is the barrier; a
			// member is busy for the part of its compute that fits between
			// its delay and the barrier, out of the iteration's wall time.
			barrier := iterTime - cfg.CommOverhead
			for _, sg := range groups {
				for slot, id := range sg.plan.Members {
					d := delayOf(delays, id)
					window := barrier - d
					if window < 0 || math.IsInf(d, 1) || !alive[id] {
						window = 0
					}
					usage.Add(math.Min(sg.compute[slot], window), iterTime)
				}
			}
		case training:
			return nil, fmt.Errorf("%w: iter %d undecodable under epoch %d", ErrBadChurn, iter, groups[0].plan.Epoch)
		default:
			res.Failed++
		}
		if training {
			g, err := decodeGradient(groups[0].plan.Strategy, groups[0].coeffs, cfg.Model, params, parts, codec)
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
		// finish time to its group's control plane, like workers uploading
		// MsgTelemetry (injected delay counts as compute, because that is
		// what the master observes). A member that never arrives contributes
		// no sample. With several groups each member also feeds the
		// group-labeled attribution families, the way a live group master
		// records its members' spans: a member that never arrives is a
		// partial dead span.
		for g, sg := range groups {
			loads := sg.plan.Strategy.Allocation().Loads
			for slot, id := range sg.plan.Members {
				if loads[slot] <= 0 {
					continue
				}
				finish := sg.finish[slot]
				if math.IsInf(finish, 1) {
					if len(groups) > 1 {
						cfg.Obs.OnMemberSpan(obs.MemberSpan{Member: id, Group: g, Partial: true, Reason: obs.RDead})
					}
					continue
				}
				if err := sg.ctrl.Observe(id, loads[slot], finish); err != nil {
					return nil, fmt.Errorf("iter %d observe member %d: %w", iter, id, err)
				}
				if cfg.Obs == nil {
					continue
				}
				if len(groups) > 1 {
					cfg.Obs.OnMemberSpan(obs.MemberSpan{Member: id, Group: g, Arrival: finish,
						Spans: []obs.Span{{Phase: obs.PhaseCompute, Seconds: finish}}})
				}
				if rate, err := sg.ctrl.Rate(id); err == nil {
					cfg.Obs.OnEstimate(g, id, rate)
				}
			}
		}
		if cfg.Obs != nil && ok {
			cfg.Obs.OnTrace(iterTrace(groups, iter, iterTime, slowest, hops, cfg.CommOverhead, rowTimes))
			epoch := -1 // like the live root: plan epochs are group-local
			if len(groups) == 1 {
				epoch = groups[0].plan.Epoch
			}
			cfg.Obs.OnIteration(epoch, iterTime)
		}

		res.Times = append(res.Times, iterTime)
		res.GroupTimes = append(res.GroupTimes, rowTimes)
		res.Epochs = append(res.Epochs, rowEpochs)
		count := 0
		for g, sg := range groups {
			count += sg.alive
			cfg.Obs.OnMembers(g, sg.alive)
			if cfg.Obs != nil {
				cs := sg.plan.Strategy.DecodeCacheStats()
				sg.cache.Fold(cfg.Obs, sg.plan.Strategy, cs.Hits, cs.Misses)
			}
		}
		res.MemberCounts = append(res.MemberCounts, count)
	}
	// Appended group by group, so a stable sort by iteration keeps group
	// order within an iteration.
	for g, sg := range groups {
		for _, ev := range sg.ctrl.Events() {
			res.Replans = append(res.Replans, GroupReplanEvent{Group: g, ReplanEvent: ev})
		}
	}
	slices.SortStableFunc(res.Replans, func(a, b GroupReplanEvent) int { return cmp.Compare(a.Iter, b.Iter) })
	res.Usage = usage.Usage()
	res.Summary = metrics.Summarize(finite)
	if training {
		res.Params = params
	}
	return res, nil
}

// iterTrace synthesises a decoded iteration's trace from simulated finish
// times, in the shape of the live runtime it stands for, so -trace output of
// a sim run diffs cleanly against a live run. One group is the flat master's
// trace: members the replay ingested up to the decode point are full child
// spans, later arrivals partial straggler erasures, like live rejects, and a
// member that never arrives a partial dead span. Several groups are the
// sharded root's trace: its children are the group masters (Group -1, Member
// = group index), each with a compute span (its decode and ingest time) and
// an upload span (the tree hops its sum paid to reach the root).
func iterTrace(groups []*simGroup, iter int, seconds, slowest, hops, comm float64, groupTimes []float64) obs.IterTrace {
	if len(groups) > 1 {
		tr := obs.IterTrace{
			Iter: iter, Epoch: -1,
			TraceID: obs.TraceID(0, -1, iter),
			Start:   time.Now(),
			Seconds: seconds,
			Spans: []obs.Span{
				{Phase: obs.PhaseBroadcast, Seconds: comm},
				{Phase: obs.PhaseCollect, Seconds: slowest},
				{Phase: obs.PhaseReduce, Seconds: hops},
			},
		}
		for g, gt := range groupTimes {
			tr.Members = append(tr.Members, obs.MemberSpan{
				Member: g, Group: -1, Arrival: gt + hops,
				Spans: []obs.Span{
					{Phase: obs.PhaseCompute, Seconds: gt},
					{Phase: obs.PhaseUpload, Seconds: hops},
				},
			})
		}
		return tr
	}
	sg := groups[0]
	tr := obs.IterTrace{
		Iter: iter, Epoch: sg.plan.Epoch,
		TraceID: obs.TraceID(0, sg.plan.Epoch, iter),
		Start:   time.Now(),
		Seconds: seconds,
		Spans: []obs.Span{
			{Phase: obs.PhaseBroadcast, Seconds: comm},
			{Phase: obs.PhaseCollect, Seconds: sg.decodeAt},
		},
	}
	loads := sg.plan.Strategy.Allocation().Loads
	for slot, id := range sg.plan.Members {
		if loads[slot] <= 0 {
			continue
		}
		finish := sg.finish[slot]
		ms := obs.MemberSpan{Member: id, Group: 0, Arrival: finish,
			Spans: []obs.Span{{Phase: obs.PhaseCompute, Seconds: finish}}}
		switch {
		case math.IsInf(finish, 1):
			ms = obs.MemberSpan{Member: id, Group: 0, Partial: true, Reason: obs.RDead}
		case finish > sg.decodeAt:
			ms.Partial, ms.Reason = true, obs.RStraggler
		}
		tr.Members = append(tr.Members, ms)
	}
	return tr
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

// replayEarliestDecodable is one group's BSP replay: completions
// walk in stable (finish, slot) order, decode is probed after every arrival
// once every partition has an arrived holder (a cheap necessary condition
// that spares the solves bound to fail), and the earliest decodable prefix
// wins. It returns that prefix's finish time, the decoding coefficients, and
// how many arrivals the master ingested up to it; ok is false when no prefix
// decodes (crashed workers — +Inf finish — never arrive).
func replayEarliestDecodable(st *core.Strategy, finish []float64) (t float64, coeffs []float64, ingested int, ok bool) {
	m := st.M()
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(finish[a], finish[b]) })
	alive := make([]bool, m)
	parts := st.Allocation().Parts
	covered, uncovered := make([]bool, st.K()), st.K()
	for _, slot := range order {
		if math.IsInf(finish[slot], 1) {
			break
		}
		alive[slot] = true
		ingested++
		for _, p := range parts[slot] {
			if !covered[p] {
				covered[p] = true
				uncovered--
			}
		}
		if uncovered > 0 {
			continue
		}
		if c, err := st.Decode(alive); err == nil {
			return finish[slot], c, ingested, true
		}
	}
	return 0, nil, 0, false
}

// delayOf reads a member's injected delay (0 outside the slice).
func delayOf(delays []float64, id int) float64 {
	if delays == nil || id-1 < 0 || id-1 >= len(delays) {
		return 0
	}
	return delays[id-1]
}
