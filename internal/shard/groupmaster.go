// The group side of the root: one coding group's master, an elastic BSP
// master scoped to that group and hosted in the root's process. It admits
// the group's workers over TCP with the elastic worker protocol, keeps a
// group-local control plane (its own elastic.Controller, its own epoch
// counter), migrates only its own workers on drift or churn, and decodes the
// group's gradient with the shared decode-plan cache and kernels: one pass
// that combines the uploads, scales the result and checks it finite — into
// the root's mean gradient in a root of one group, into the group's sum for
// the root's reduce in a root of more.
//
// Membership, generation fencing, migration delivery and the epoch-fenced
// collect are delegated to internal/roster, so a fencing fix lands once and
// the conformance suite verifies it for roots of one group and of many. The
// iteration over the engine — the paper's master loop, and the one retry
// rule — is the group's own (group.iterate).
package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/dataplane"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/estimate"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/rootcore"
	"github.com/hetgc/hetgc/internal/roster"
	"github.com/hetgc/hetgc/internal/transport"
)

// maxRetries is the number of retries an iteration's time budget covers:
// (maxRetries+1)·IterTimeout + IterTimeout/2. A group gives up once more
// than maxRetries+2 attempts in a row have failed, or the budget is spent.
const maxRetries = 2

// group is one coding group's master: its roster engine on its own worker
// listener, the plan it iterates under and what its iterations leave
// behind. Between NewRoot and Close only the root's iteration touches it,
// one goroutine per group.
type group struct {
	id      int
	workers int    // the group's planned worker count (0 without Throughputs)
	rootGen uint64 // the root's lease generation, in every trace ID
	eng     *roster.Engine
	// plan is the current plan; nil forces a migration before the next
	// broadcast.
	plan *elastic.Plan
	// fencing accumulates the fencing decisions of every collect.
	fencing roster.Stats
	// gather and combine are the wall seconds the last completed iteration
	// spent between its first broadcast and the decodable collect, and in
	// the combine.
	gather, combine float64
	epochs          []int // the plan epoch each completed iteration decoded under
	cache           obs.CacheTracker
}

// newGroup builds group g of plan: its controller (restored from st on a
// resumed root) and its engine on lis, fenced by the root's lease
// generation and recording into the root's journal. It closes lis on
// failure.
func newGroup(cfg *Config, plan *Plan, g int, st *checkpoint.State, root *rootcore.Core, lis *transport.Listener) (*group, error) {
	grp := plan.Groups[g]
	// The one group of a one-group root plans on the root's seed.
	seed := cfg.Seed
	if plan.NumGroups() > 1 {
		seed += int64(g) + 1
	}
	ctrl, recovered, err := buildGroupController(cfg, grp, g, seed, st)
	if err != nil {
		_ = lis.Close()
		return nil, err
	}
	eng, err := newGroupEngine(cfg, grp, g, ctrl, recovered, root, lis)
	if err != nil {
		return nil, err
	}
	return &group{id: g, workers: len(grp.Workers), rootGen: uint64(root.Gen()), eng: eng}, nil
}

// iterate runs one root iteration on the group — replan at the iteration
// boundary when the controller asks, broadcast, collect until the code
// decodes, decode alpha times the group's gradient sum into sum
// (len(params) elements) — timing
// its phases on sc with the completed epoch in the trace ID and attaching
// the stitched member spans, partial ones included. With a nil sc (a root of
// many groups, whose trace children are the groups) the member spans feed
// the attribution families directly.
//
// One retry rule covers every failure. Each attempt first waits up to
// IterTimeout for a plannable quorum (S+1, the controller's floor) — a group
// serving with a partial roster beyond that is fine, the controller plans
// around it. A failed attempt, a migration that cannot plan or a collect
// that cannot decode, forces a churn migration before the next. The group
// gives up after more than maxRetries+2 failures in a row or past its
// budget, and refuses a non-finite result: training itself blew up.
func (gr *group) iterate(cfg *Config, sc *obs.IterScope, iter int, alpha float64, params, sum []float64) error {
	eng := gr.eng
	deadline := time.Now().Add(time.Duration(maxRetries+1)*cfg.IterTimeout + cfg.IterTimeout/2)
	_, reason := eng.ShouldReplan(iter) // the replan's trigger, "" when the plan stands
	var start time.Time
	var coeffs []float64
	var coded []grad.Gradient
	var err error // the last failed attempt's cause
	for failures := 0; ; failures++ {
		if failures > 0 {
			gr.plan, reason = nil, obs.ReasonChurn
			if failures > maxRetries+2 || time.Now().After(deadline) {
				return errors.Join(fmt.Errorf("%w: group %d gave up on iteration %d after %d failed attempts in a row", ErrGroupFailed, gr.id, iter, failures), err)
			}
		}
		if need := cfg.S + 1; eng.AliveCount() < need {
			_ = eng.WaitForMembers(need, min(cfg.IterTimeout, time.Until(deadline)))
		}
		if reason != "" {
			if gr.plan, err = eng.Migrate(iter, reason); err != nil {
				continue
			}
			reason = ""
		}
		if start.IsZero() {
			start = time.Now()
		}
		// The trace carries the epoch the iteration completes under, in its
		// context identifier too: each attempt restamps both.
		sc.SetEpoch(gr.plan.Epoch)
		sc.SetTraceID(obs.TraceID(gr.rootGen, gr.plan.Epoch, iter))
		sc.Phase(obs.PhaseBroadcast)
		eng.BroadcastParams(gr.plan, iter, params)
		sc.Phase(obs.PhaseCollect)
		// No collect attempt outlasts the deadline.
		timeout := min(cfg.IterTimeout, max(time.Until(deadline), time.Millisecond))
		var ok bool
		if coeffs, coded, ok = eng.Collect(gr.plan, iter, len(params), timeout, &gr.fencing); ok {
			break
		}
		// Timeout or fatal deaths: this epoch cannot complete.
		err = fmt.Errorf("iteration %d undecodable under epoch %d", iter, gr.plan.Epoch)
	}
	contribs := eng.TakeContribs(iter)
	if sc != nil {
		sc.AddMembers(contribs)
	} else {
		for _, ms := range contribs {
			cfg.Obs.OnMemberSpan(ms)
		}
	}
	sc.Phase(obs.PhaseDecode)
	combineStart := time.Now()
	gr.gather = combineStart.Sub(start).Seconds()
	finite, err := grad.DecodeMeanInto(sum, alpha, coeffs, coded)
	if err != nil {
		return fmt.Errorf("iteration %d combine: %w", iter, err)
	}
	eng.Release(coded)
	gr.combine = time.Since(combineStart).Seconds()
	if cfg.Obs != nil {
		cs := gr.plan.Strategy.DecodeCacheStats()
		gr.cache.Fold(cfg.Obs, gr.plan.Strategy, cs.Hits, cs.Misses)
	}
	if !finite {
		return fmt.Errorf("%w: group %d decoded a non-finite gradient at iteration %d", ErrGroupFailed, gr.id, iter)
	}
	gr.epochs = append(gr.epochs, gr.plan.Epoch)
	return nil
}

// span is the group's root-tier child span for the iteration it just
// completed, anchored at start: the gather (the group's workers computing
// and uploading) reads as compute, the combine as encode — the span family
// workers report, so one trace view renders both tiers.
func (gr *group) span(start time.Time) obs.MemberSpan {
	return obs.MemberSpan{Member: gr.id, Group: -1, Arrival: time.Since(start).Seconds(), Spans: []obs.Span{
		{Phase: obs.PhaseCompute, Seconds: gr.gather},
		{Phase: obs.PhaseEncode, Seconds: gr.combine},
	}}
}

// stats snapshots the group's counters once its iterations are over.
func (gr *group) stats() GroupStats {
	eng := gr.eng
	return GroupStats{
		Group:   gr.id,
		Workers: gr.workers,
		Epochs:  gr.epochs,
		Replans: eng.Events(),
		Stats:   gr.fencing,
		Joins:   eng.Joins(),
		Deaths:  eng.Deaths(),
	}
}

// coreState summarises the group's durable state: its highest plan epoch,
// every member ID it admitted, and the live control-plane state (throughput
// estimates), so a resumed or promoted root re-plans from real history.
func (gr *group) coreState() checkpoint.GroupState {
	gs := checkpoint.GroupState{Group: gr.id, Epoch: gr.eng.Epoch(), Ctrl: gr.eng.ControllerState()}
	for _, ms := range gs.Ctrl.Members {
		gs.Members = append(gs.Members, ms.ID)
	}
	sort.Ints(gs.Members)
	return gs
}

// buildGroupController constructs one group's control plane on seed and,
// when st is the root's recovered checkpoint, restores it. Recovery
// precedence: a snapshot-carried controller state — real throughput history
// — wins over the planned-throughput priors derived from member IDs alone;
// a member with neither is planned at InitialRate. Every restored member
// starts dead (its connection died with the previous incarnation) and the
// epoch base is raised above everything the journal recorded. It returns
// the member IDs to reserve.
func buildGroupController(cfg *Config, grp *Group, g int, seed int64, st *checkpoint.State) (*elastic.Controller, []int, error) {
	ctrl, err := elastic.NewController(elastic.Config{
		K: len(grp.Parts), S: cfg.S, Scheme: cfg.Scheme,
		Alpha: cfg.Alpha, DriftThreshold: cfg.DriftThreshold,
		MinObservations: cfg.MinObservations, CooldownIters: cfg.CooldownIters,
		InitialRate: cfg.InitialRate,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: group %d: %v", ErrBadConfig, g, err)
	}
	if st == nil {
		return ctrl, nil, nil
	}
	memberIDs := st.GroupMembers[g]
	ctrlState := recoveredCtrl(st, g)
	var recovered []int
	switch {
	case ctrlState != nil && len(ctrlState.Members) > 0:
		if recovered, err = ctrl.RestoreDead(ctrlState, memberIDs); err != nil {
			return nil, nil, fmt.Errorf("%w: group %d: %v", ErrBadConfig, g, err)
		}
	case len(memberIDs) > 0:
		cs := &elastic.ControllerState{LastReplan: -1}
		for i, id := range memberIDs {
			prior := 0.0
			if i < len(grp.Workers) {
				prior = cfg.Throughputs[grp.Workers[i]]
			}
			cs.Members = append(cs.Members, elastic.MemberState{
				ID: id, Meter: estimate.MeterState{Prior: prior},
			})
		}
		if err := ctrl.Restore(cs); err != nil {
			return nil, nil, fmt.Errorf("%w: group %d: %v", ErrBadConfig, g, err)
		}
		recovered = memberIDs
	}
	if e, ok := st.GroupEpochs[g]; ok {
		ctrl.SetEpochBase(e + 1)
	}
	return ctrl, recovered, nil
}

// recoveredCtrl returns group g's controller state in the recovered
// checkpoint's snapshot, nil when there is none.
func recoveredCtrl(st *checkpoint.State, g int) *elastic.ControllerState {
	if st.Snap == nil {
		return nil
	}
	for _, gs := range st.Snap.Groups {
		if gs.Group == g {
			return gs.Ctrl
		}
	}
	return nil
}

// newGroupEngine builds the roster engine for one group on lis, in the
// root's codec, fenced by its lease generation and recording into its
// journal. Partition indices in assignments are global (the worker fetches
// data by global partition ID), so the engine translates through the group's
// partition slice and advertises the global K.
func newGroupEngine(cfg *Config, grp *Group, g int, ctrl *elastic.Controller, recovered []int, root *rootcore.Core, lis *transport.Listener) (*roster.Engine, error) {
	rcfg := roster.Config{
		Controller:   ctrl,
		WriteTimeout: cfg.IterTimeout,
		K:            cfg.K, // global K: partition IDs are global
		S:            cfg.S,
		Codec:        byte(root.Codec()),
		RootGen:      root.Gen(),
		PartitionMap: grp.Parts,
		Recovered:    recovered,
		Recorder:     root.Recorder(g),
		Obs:          cfg.Obs,
		ObsGroup:     g,
	}
	if n := len(grp.Workers); n > 0 {
		// Planned workers size the inbox and price the joins in order;
		// without them the roster's default inbox and the controller's own
		// prior stand.
		rcfg.InboxSize = 2*n + 8
		rcfg.Prior = func(joinSeq int) float64 {
			if joinSeq < n {
				return cfg.Throughputs[grp.Workers[joinSeq]]
			}
			return 0
		}
	}
	if cfg.PartitionSource != nil {
		// The group master doubles as its workers' data plane. Partition
		// indices are global, so the root-wide source serves every group;
		// each engine caches only the blobs its own workers request.
		rcfg.PartitionBlob = dataplane.NewSource(cfg.PartitionSource, cfg.K).Blob
	}
	eng, err := roster.New(rcfg, lis)
	if err != nil {
		_ = lis.Close()
		return nil, fmt.Errorf("%w: group %d: %v", ErrBadConfig, g, err)
	}
	return eng, nil
}
