// Sharded co-simulation: the deterministic, socket-free counterpart of the
// hierarchical runtime in internal/shard. Workers are partitioned into
// independently-coded groups; every group runs its own BSP decode over its
// own slice of the global partitions and its own elastic control plane, so
// drift and churn trigger *group-local* re-planning — each group's epoch
// advances independently, and a migration in one group never touches the
// others. Group results meet at a FanIn-ary reduction tree whose hop latency
// is charged per iteration. Fixed seeds make runs bit-identical.

package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/metrics"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/straggler"
)

// ShardedSimConfig parameterises a deterministic group-sharded simulation.
type ShardedSimConfig struct {
	// K is the global partition count, S the *per-group* straggler budget.
	K, S int
	// GroupSize is the target workers per coding group (default
	// shard.DefaultGroupSize); FanIn the reduction-tree arity (default 4).
	GroupSize, FanIn int
	// Scheme is the per-group strategy family: heter-aware (the default) or
	// group-based. A fixed-shape scheme needs one member per partition, which
	// a capacity-split group does not have, so it is refused.
	Scheme core.Kind
	// Rates are the true speeds (global partitions/second) of the initial
	// workers, which get member IDs 1..len(Rates) in order. They also seed
	// the controllers' estimates (the operator sampled the fleet once at
	// start-up); SpeedStep churn makes truth and estimate drift apart.
	Rates []float64
	// Injector adds per-iteration straggler delays, indexed by member ID-1;
	// nil means none.
	Injector straggler.Injector
	// Events is the churn schedule (applied in slice order at each iteration
	// boundary). Member IDs are global; a Join attaches the new worker to
	// the group with the fewest alive members.
	Events []ChurnEvent
	// Iterations is the number of BSP iterations to simulate.
	Iterations int
	// Alpha, DriftThreshold, MinObservations, CooldownIters and InitialRate
	// parameterise every group's control plane (see elastic.Config).
	Alpha           float64
	DriftThreshold  float64
	MinObservations int
	CooldownIters   int
	InitialRate     float64
	// HopSeconds is the latency of one reduction-tree hop: each iteration
	// pays Tree.Depth()·HopSeconds of aggregation time. Frame batching is
	// what keeps this per-hop, not per-chunk: a group's whole upload is one
	// coalesced write.
	HopSeconds float64
	// IngestSeconds is the master-side cost of receiving and processing one
	// gradient upload — the fan-in bottleneck that caps flat deployments. A
	// flat master pays it for every one of m uploads on a single ingest
	// path; a group master pays it only for its own group's uploads (groups
	// ingest in parallel), and each reduction-tree node for at most FanIn
	// coalesced frames per hop (batching makes a group's whole chunked
	// upload one frame). 0 disables the model.
	IngestSeconds float64
	// CommOverhead is a fixed per-iteration communication cost in seconds.
	CommOverhead float64
	// Seed is the only randomness: group g plans from a stream seeded
	// Seed+g+1, and the injector draws from one seeded Seed. Fixed seeds make
	// runs bit-identical.
	Seed int64
	// TelemetryConfig (see internal/clustercfg): a non-nil Obs receives the
	// simulation's telemetry through the same helpers (and therefore the
	// same metric families and group labels) the live sharded runtime uses,
	// so sim and live scrapes are diffable.
	clustercfg.TelemetryConfig
}

// GroupReplanEvent is one group-local migration.
type GroupReplanEvent struct {
	// Group is the coding-group index.
	Group int
	elastic.ReplanEvent
}

// ShardedSimResult aggregates a sharded simulation run.
type ShardedSimResult struct {
	// Times are per-iteration wall times in seconds (slowest group plus
	// aggregation hops).
	Times []float64
	// GroupTimes[i][g] is group g's decode time at iteration i, before the
	// reduction-tree hops.
	GroupTimes [][]float64
	// Epochs[i][g] is the plan epoch group g ran under at iteration i —
	// epochs advance per group, independently.
	Epochs [][]int
	// MemberCounts is the total alive membership per iteration.
	MemberCounts []int
	// Replans is the migration history across all groups.
	Replans []GroupReplanEvent
	// Groups is the number of coding groups, Depth the reduction-tree depth.
	Groups, Depth int
	// Summary summarises Times.
	Summary metrics.Summary
}

// shardedGroup is one group's live state during the simulation.
type shardedGroup struct {
	ctrl    *elastic.Controller
	plan    *elastic.Plan
	members map[int]bool // alive member IDs of this group
	cache   obs.CacheTracker
}

// RunSharded simulates the hierarchical group-sharded runtime over an
// optional churn schedule and straggler injector. Fully deterministic for a
// fixed config: two runs produce bit-identical results.
func RunSharded(cfg ShardedSimConfig) (*ShardedSimResult, error) {
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("%w: no initial members", ErrBadChurn)
	}
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("%w: iterations=%d", ErrBadChurn, cfg.Iterations)
	}
	if cfg.CommOverhead < 0 || cfg.HopSeconds < 0 || cfg.IngestSeconds < 0 {
		return nil, fmt.Errorf("%w: comm=%v hop=%v ingest=%v", ErrBadChurn, cfg.CommOverhead, cfg.HopSeconds, cfg.IngestSeconds)
	}
	if cfg.Scheme.FixedShape() {
		return nil, fmt.Errorf("%w: %v cannot run in capacity-split groups", ErrBadChurn, cfg.Scheme)
	}
	// Layout only: per-group strategies are built by each group's
	// controller at its initial replan.
	plan, err := shard.BuildPlanLayout(cfg.Rates, shard.PlanConfig{
		K: cfg.K, S: cfg.S, GroupSize: cfg.GroupSize, FanIn: cfg.FanIn,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadChurn, err)
	}

	trueRate := make(map[int]float64)
	memberGroup := make(map[int]int)
	groups := make([]*shardedGroup, plan.NumGroups())
	for g, grp := range plan.Groups {
		ctrl, err := elastic.NewController(elastic.Config{
			K: len(grp.Parts), S: cfg.S, Scheme: cfg.Scheme,
			Alpha: cfg.Alpha, DriftThreshold: cfg.DriftThreshold,
			MinObservations: cfg.MinObservations, CooldownIters: cfg.CooldownIters,
			InitialRate: cfg.InitialRate,
		}, rand.New(rand.NewSource(cfg.Seed+int64(g)+1)))
		if err != nil {
			return nil, fmt.Errorf("%w: group %d: %v", ErrBadChurn, g, err)
		}
		sg := &shardedGroup{ctrl: ctrl, members: make(map[int]bool)}
		for _, w := range grp.Workers {
			id := w + 1 // stable member IDs are 1-based, like the elastic sim
			trueRate[id] = cfg.Rates[w]
			memberGroup[id] = g
			sg.members[id] = true
			ctrl.AddMember(id, cfg.Rates[w])
		}
		groups[g] = sg
	}
	nextID := len(cfg.Rates) + 1
	injRng := rand.New(rand.NewSource(cfg.Seed))

	res := &ShardedSimResult{
		Times:        make([]float64, 0, cfg.Iterations),
		GroupTimes:   make([][]float64, 0, cfg.Iterations),
		Epochs:       make([][]int, 0, cfg.Iterations),
		MemberCounts: make([]int, 0, cfg.Iterations),
		Groups:       plan.NumGroups(),
		Depth:        plan.Tree.Depth(),
	}

	for iter := 0; iter < cfg.Iterations; iter++ {
		// Churn events at the boundary, routed to the owning group.
		for _, ev := range cfg.Events {
			if ev.Iter != iter {
				continue
			}
			if err := applyShardedChurn(ev, iter, groups, memberGroup, trueRate, &nextID, cfg.Obs); err != nil {
				return nil, err
			}
		}

		// Group-local control decisions: a replan in one group leaves every
		// other group's epoch untouched.
		for g, sg := range groups {
			replan, reason := sg.ctrl.ShouldReplan(iter)
			if cfg.Obs != nil {
				cfg.Obs.OnDrift(sg.ctrl.DriftGain())
			}
			if replan {
				p, err := sg.ctrl.Replan(iter, reason)
				if err != nil {
					return nil, fmt.Errorf("group %d iter %d: %w", g, iter, err)
				}
				sg.plan = p
				cfg.Obs.OnReplan(reason, iter, p.Epoch, len(p.Members))
			}
		}

		// Straggler delays for this iteration, indexed by member ID-1.
		var delays []float64
		if cfg.Injector != nil {
			delays = cfg.Injector.Delays(iter, nextID-1, injRng)
		}

		// One BSP iteration per group: completions in time order, decode at
		// the earliest decodable prefix — the flat simulator's loop, run
		// once per group over its own small code.
		iterGroupTimes := make([]float64, len(groups))
		iterEpochs := make([]int, len(groups))
		for g, sg := range groups {
			gt, ingested, err := simulateGroupIteration(sg, trueRate, delays)
			if err != nil {
				return nil, fmt.Errorf("group %d iter %d epoch %d: %w", g, iter, sg.plan.Epoch, err)
			}
			// The group master ingests every upload that arrived up to the
			// decode point on one path — charged serially, the worst case.
			iterGroupTimes[g] = gt + float64(ingested)*cfg.IngestSeconds
			iterEpochs[g] = sg.plan.Epoch
			if cfg.Obs != nil {
				cs := sg.plan.Strategy.DecodeCacheStats()
				sg.cache.Fold(cfg.Obs, sg.plan.Strategy, cs.Hits, cs.Misses)
			}
		}

		// The barrier: every group's sum must reach the root, so the
		// iteration runs at the slowest group, plus the reduction-tree hops —
		// each hop pays its latency and the ingest of at most FanIn coalesced
		// frames (a group's whole chunked upload is one batched frame).
		slowest := 0.0
		for _, gt := range iterGroupTimes {
			slowest = math.Max(slowest, gt)
		}
		fanIn := plan.Tree.FanIn
		hopCost := cfg.HopSeconds + float64(fanIn)*cfg.IngestSeconds
		iterTime := slowest + float64(res.Depth)*hopCost + cfg.CommOverhead

		// Telemetry into each group's control plane, exactly like workers
		// uploading MsgTelemetry to their group master: injected delay
		// counts as compute, because that is what the master observes. Each
		// worker also feeds the group-labeled attribution families, the way a
		// live group master records its members' stitched spans — a crashed
		// worker (+Inf finish) becomes a partial "dead" span, never a sample.
		for g, sg := range groups {
			loads := sg.plan.Strategy.Allocation().Loads
			for slot, id := range sg.plan.Members {
				if loads[slot] <= 0 {
					continue
				}
				finish := float64(loads[slot])/trueRate[id] + delayOf(delays, id)
				if math.IsInf(finish, 1) {
					cfg.Obs.OnMemberSpan(obs.MemberSpan{Member: id, Group: g, Partial: true, Reason: obs.RDead})
					continue
				}
				if err := sg.ctrl.Observe(id, loads[slot], finish); err != nil {
					return nil, fmt.Errorf("iter %d observe member %d: %w", iter, id, err)
				}
				cfg.Obs.OnMemberSpan(obs.MemberSpan{Member: id, Group: g, Arrival: finish,
					Spans: []obs.Span{{Phase: obs.PhaseCompute, Seconds: finish}}})
				if cfg.Obs != nil {
					if rate, err := sg.ctrl.Rate(id); err == nil {
						cfg.Obs.OnEstimate(g, id, rate)
					}
				}
			}
		}

		// Synthetic root trace, the live sharded root's shape: child spans
		// are the group masters (Group -1, Member = group index), each with a
		// compute span (its decode+ingest time) and an upload span (the
		// reduction-tree hops its sum paid to reach the root).
		if cfg.Obs != nil {
			hops := float64(res.Depth) * hopCost
			tr := obs.IterTrace{
				Iter: iter, Epoch: -1,
				TraceID: obs.TraceID(0, -1, iter),
				Start:   time.Now(),
				Seconds: iterTime,
				Spans: []obs.Span{
					{Phase: obs.PhaseBroadcast, Seconds: cfg.CommOverhead},
					{Phase: obs.PhaseCollect, Seconds: slowest},
					{Phase: obs.PhaseReduce, Seconds: hops},
				},
			}
			for g, gt := range iterGroupTimes {
				tr.Members = append(tr.Members, obs.MemberSpan{
					Member: g, Group: -1, Arrival: gt + hops,
					Spans: []obs.Span{
						{Phase: obs.PhaseCompute, Seconds: gt},
						{Phase: obs.PhaseUpload, Seconds: hops},
					},
				})
			}
			cfg.Obs.OnTrace(tr)
		}

		res.Times = append(res.Times, iterTime)
		res.GroupTimes = append(res.GroupTimes, iterGroupTimes)
		res.Epochs = append(res.Epochs, iterEpochs)
		count := 0
		for g, sg := range groups {
			alive := len(sg.ctrl.AliveMembers())
			count += alive
			cfg.Obs.OnMembers(g, alive)
		}
		res.MemberCounts = append(res.MemberCounts, count)
		// Epoch -1, like the live root: plan epochs are group-local.
		cfg.Obs.OnIteration(-1, iterTime)
	}

	for g, sg := range groups {
		for _, ev := range sg.ctrl.Events() {
			res.Replans = append(res.Replans, GroupReplanEvent{Group: g, ReplanEvent: ev})
		}
	}
	sort.SliceStable(res.Replans, func(a, b int) bool {
		if res.Replans[a].Iter != res.Replans[b].Iter {
			return res.Replans[a].Iter < res.Replans[b].Iter
		}
		return res.Replans[a].Group < res.Replans[b].Group
	})
	res.Summary = metrics.Summarize(res.Times)
	return res, nil
}

// applyShardedChurn routes one churn event to its owning group.
func applyShardedChurn(ev ChurnEvent, iter int, groups []*shardedGroup,
	memberGroup map[int]int, trueRate map[int]float64, nextID *int, om *obs.Metrics) error {
	switch ev.Kind {
	case SpeedStep:
		g, ok := memberGroup[ev.Member]
		if !ok || !groups[g].members[ev.Member] {
			return fmt.Errorf("%w: speed-step for absent member %d at iter %d", ErrBadChurn, ev.Member, iter)
		}
		if ev.Factor <= 0 {
			return fmt.Errorf("%w: speed-step factor %v", ErrBadChurn, ev.Factor)
		}
		trueRate[ev.Member] *= ev.Factor
	case Kill:
		g, ok := memberGroup[ev.Member]
		if !ok || !groups[g].members[ev.Member] {
			return fmt.Errorf("%w: kill for absent member %d at iter %d", ErrBadChurn, ev.Member, iter)
		}
		groups[g].members[ev.Member] = false
		groups[g].ctrl.RemoveMember(ev.Member)
		om.OnDeath(g, ev.Member, len(groups[g].ctrl.AliveMembers()), iter)
	case Join:
		if ev.Rate <= 0 {
			return fmt.Errorf("%w: join rate %v", ErrBadChurn, ev.Rate)
		}
		// Attach to the group with the fewest alive members (lowest index
		// on ties) — deterministic load-levelling placement.
		best, bestAlive := 0, int(^uint(0)>>1)
		for g, sg := range groups {
			if n := len(sg.ctrl.AliveMembers()); n < bestAlive {
				best, bestAlive = g, n
			}
		}
		id := *nextID
		*nextID++
		trueRate[id] = ev.Rate
		memberGroup[id] = best
		groups[best].members[id] = true
		groups[best].ctrl.AddMember(id, 0)
		om.OnJoin(best, id, false, len(groups[best].ctrl.AliveMembers()), iter)
	case Rejoin:
		g, ok := memberGroup[ev.Member]
		if !ok || groups[g].members[ev.Member] {
			return fmt.Errorf("%w: rejoin of member %d at iter %d", ErrBadChurn, ev.Member, iter)
		}
		groups[g].members[ev.Member] = true
		if ev.Rate > 0 {
			trueRate[ev.Member] = ev.Rate
		}
		groups[g].ctrl.AddMember(ev.Member, 0)
		om.OnJoin(g, ev.Member, true, len(groups[g].ctrl.AliveMembers()), iter)
	default:
		return fmt.Errorf("%w: unknown event kind %v", ErrBadChurn, ev.Kind)
	}
	return nil
}

// simulateGroupIteration replays one group's completions in time order and
// returns the earliest decodable prefix's finish time together with the
// number of uploads the group master ingested up to that point.
func simulateGroupIteration(sg *shardedGroup, trueRate map[int]float64, delays []float64) (float64, int, error) {
	st := sg.plan.Strategy
	loads := st.Allocation().Loads
	finish := make([]float64, st.M())
	for slot, id := range sg.plan.Members {
		finish[slot] = float64(loads[slot])/trueRate[id] + delayOf(delays, id)
	}
	t, _, ingested, ok := replayEarliestDecodable(st, finish)
	if !ok {
		return 0, 0, fmt.Errorf("%w: undecodable", ErrBadChurn)
	}
	return t, ingested, nil
}

// replayEarliestDecodable is the simulators' shared BSP replay: completions
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
