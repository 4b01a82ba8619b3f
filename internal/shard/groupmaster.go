// The group side of the hierarchy: one coding group's master, an elastic
// BSP master scoped to that group and hosted in the root's process. It
// admits the group's workers over TCP with the elastic worker protocol,
// keeps a group-local control plane (its own elastic.Controller, its own
// epoch counter), migrates only its own workers on drift or churn, and
// decodes the group's gradient sum with the shared decode-plan cache and
// kernels.
//
// Membership, generation fencing, migration delivery and the epoch-fenced
// collect are delegated to internal/roster — the same engine behind the
// flat runtime.ElasticMaster — and one group iteration is roster.Loop, the
// flat master's whole collect, so a fencing fix lands once and is verified
// against both runtimes by the shared conformance suite.
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

// group is one coding group's master: its roster engine on its own worker
// listener, the group iteration over it, and the plan epoch each completed
// iteration decoded under. Between NewRoot and Close only the root's
// iteration touches it, one goroutine per group.
type group struct {
	id       int
	workers  int // the group's planned worker count
	loop     roster.Loop
	epochs   []int
	failures int // failed attempts in a row, across iterations
}

// newGroup builds group g: its controller (restored from st on a resumed
// root) and its engine listening on workerAddr, fenced by the root's lease
// generation and recording into the root's journal.
func newGroup(cfg *Config, grp *Group, g int, st *checkpoint.State, root *rootcore.Core, workerAddr string) (*group, error) {
	ctrl, recovered, err := buildGroupController(cfg, grp, g, st)
	if err != nil {
		return nil, err
	}
	lis, err := transport.Listen(workerAddr)
	if err != nil {
		return nil, err
	}
	eng, err := newGroupEngine(cfg, grp, g, ctrl, recovered, root, lis)
	if err != nil {
		return nil, err
	}
	return &group{id: g, workers: len(grp.Workers), loop: roster.Loop{
		Eng: eng, IterTimeout: cfg.IterTimeout, MaxRetries: cfg.MaxRetries,
		Fail: fmt.Errorf("%w: group %d", ErrGroupFailed, g),
	}}, nil
}

// iterate runs one root iteration on the group, combining its decoded sum
// into sum. Each attempt first waits up to IterTimeout for a plannable
// quorum (S+1, the controller's floor) — a group serving with a partial
// roster beyond that is fine, the controller plans around it. A failed
// attempt forces a migration before the next one. The group gives up after
// MaxRetries+2 failures in a row or once the deadline has passed, and
// refuses a non-finite sum: training itself blew up. It returns the group's
// root-tier child span, anchored at start.
func (gr *group) iterate(cfg *Config, iter int, params, sum []float64, start, deadline time.Time) (obs.MemberSpan, error) {
	eng := gr.loop.Eng
	for {
		if need := cfg.S + 1; eng.AliveCount() < need {
			_ = eng.WaitForMembers(need, min(cfg.IterTimeout, time.Until(deadline)))
		}
		// No collect attempt outlasts the deadline by more than its retries.
		gr.loop.IterTimeout = min(cfg.IterTimeout, max(time.Until(deadline), time.Millisecond))
		err := gr.loop.Iteration(nil, iter, params, sum)
		if err == nil {
			break
		}
		gr.loop.Plan = nil
		if gr.failures++; gr.failures > cfg.MaxRetries+2 || time.Now().After(deadline) {
			return obs.MemberSpan{}, errors.Join(fmt.Errorf("%w: group %d gave up on iteration %d after %d failed attempts in a row", ErrGroupFailed, gr.id, iter, gr.failures), err)
		}
	}
	gr.failures = 0
	if grad.InfOrNaN(sum) {
		return obs.MemberSpan{}, fmt.Errorf("%w: group %d decoded a non-finite sum at iteration %d", ErrGroupFailed, gr.id, iter)
	}
	gr.epochs = append(gr.epochs, gr.loop.Plan.Epoch)
	return obs.MemberSpan{Member: gr.id, Group: -1, Arrival: time.Since(start).Seconds(), Spans: gr.spans()}, nil
}

// spans are the group's phase spans in its root-tier child span: the gather
// (the group's workers computing and uploading) reads as compute, the
// combine as encode — the span family workers report, so one trace view
// renders both tiers.
func (gr *group) spans() []obs.Span {
	return []obs.Span{
		{Phase: obs.PhaseCompute, Seconds: gr.loop.Gather},
		{Phase: obs.PhaseEncode, Seconds: gr.loop.Combine},
	}
}

// stats snapshots the group's counters once its iterations are over.
func (gr *group) stats() GroupStats {
	eng := gr.loop.Eng
	return GroupStats{
		Group:   gr.id,
		Workers: gr.workers,
		Epochs:  gr.epochs,
		Replans: eng.Events(),
		Stats:   gr.loop.Stats,
		Joins:   eng.Joins(),
		Deaths:  eng.Deaths(),
	}
}

// coreState summarises the group's durable state: its highest plan epoch,
// every member ID it admitted, and the live control-plane state (throughput
// estimates), so a resumed or promoted root re-plans from real history.
func (gr *group) coreState() checkpoint.GroupState {
	gs := checkpoint.GroupState{Group: gr.id, Epoch: gr.loop.Eng.Epoch(), Ctrl: gr.loop.Eng.ControllerState()}
	for _, ms := range gs.Ctrl.Members {
		gs.Members = append(gs.Members, ms.ID)
	}
	sort.Ints(gs.Members)
	return gs
}

// buildGroupController constructs one group's control plane and, when st is
// the root's recovered checkpoint, restores
// it. Recovery precedence: a snapshot-carried controller state — real
// throughput history — wins over the planned-throughput priors derived from
// member IDs alone. Every restored member starts dead (its connection died
// with the previous incarnation) and the epoch base is raised above
// everything the journal recorded. It returns the member IDs to reserve.
func buildGroupController(cfg *Config, grp *Group, g int, st *checkpoint.State) (*elastic.Controller, []int, error) {
	ctrl, err := elastic.NewController(elastic.Config{
		K: len(grp.Parts), S: cfg.S, Scheme: cfg.Scheme,
		Alpha: cfg.Alpha, DriftThreshold: cfg.DriftThreshold,
		MinObservations: cfg.MinObservations, CooldownIters: cfg.CooldownIters,
		InitialRate: cfg.InitialRate,
	}, rand.New(rand.NewSource(cfg.Seed+int64(g)+1)))
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
		InboxSize:    2*len(grp.Workers) + 8,
		K:            cfg.K, // global K: partition IDs are global
		S:            cfg.S,
		Codec:        byte(root.Codec()),
		RootGen:      root.Gen(),
		PartitionMap: grp.Parts,
		Recovered:    recovered,
		Recorder:     root.Recorder(g),
		Obs:          cfg.Obs,
		ObsGroup:     g,
		Prior: func(joinSeq int) float64 {
			if joinSeq < len(grp.Workers) {
				return cfg.Throughputs[grp.Workers[joinSeq]]
			}
			return 0
		},
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
