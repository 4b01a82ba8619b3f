// Live hierarchical runtime: a Root master hosting one group master per
// coding group, and the elastic worker protocol stitched into a two-level
// deployment. Each group master owns one coding group — it admits that
// group's workers over TCP on its own listener, runs the epoch-fenced BSP
// collect/decode loop with its own group-local elastic control plane (drift
// or churn in a group migrates only that group) and decodes the group's
// gradient sum. The root runs every group's iteration on its parameters
// concurrently, reduces the decoded sums along the configured fan-in tree
// and steps the optimizer.
//
// With a positive LeaseTTL the root runs under the HA lease in
// CheckpointDir: its generation fences every group's broadcasts and its
// workers' uploads, and the journal guard refuses writes the moment the
// lease is lost (see internal/ha). The groups live and die with their root:
// after a restart or a takeover, workers redial the successor's group
// addresses with their member IDs.
//
// Workers speak the unmodified elastic worker protocol (hello/ack,
// MsgReassign, epoch-tagged params and gradients, telemetry), so
// runtime.DialElasticWorker against a group master's address is all a worker
// needs.
package shard

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/rootcore"
	"github.com/hetgc/hetgc/internal/roster"
)

// Errors returned by the sharded runtime.
var (
	// ErrBadConfig marks invalid sharded-runtime configurations.
	ErrBadConfig = errors.New("shard: invalid config")
	// ErrGroupFailed is returned when a coding group cannot make progress
	// (lost its planning quorum or timed out beyond its retry budget).
	ErrGroupFailed = errors.New("shard: group failed")
)

// DefaultChunkLen is a gradient chunk length for transport.ChunkGradient:
// 512 KiB sub-frames of float64 elements.
const DefaultChunkLen = 1 << 16

// Config configures a sharded training run.
type Config struct {
	// K is the global data-partition count, S the per-group straggler
	// budget. GroupSize and FanIn shape the group layout (see PlanConfig);
	// Scheme is the strategy family every group's controller builds:
	// heter-aware (the default) or group-based. A fixed-shape scheme needs one
	// member per partition, which a capacity-split group does not have, so it
	// is refused.
	K, S      int
	GroupSize int
	FanIn     int
	Scheme    core.Kind
	// Throughputs are the initial per-worker speed estimates; their length
	// fixes the total worker count and the grouping.
	Throughputs []float64
	// Model, Optimizer, InitialParams, Iterations, SampleCount, IterTimeout,
	// LossEvery and LossFn mirror runtime.ElasticConfig.
	Model         ml.Model
	Optimizer     ml.Optimizer
	InitialParams []float64
	Iterations    int
	SampleCount   int
	IterTimeout   time.Duration
	LossEvery     int
	LossFn        func(params []float64) (float64, error)
	// Alpha, DriftThreshold, MinObservations, CooldownIters and InitialRate
	// parameterise every group's control plane (see elastic.Config).
	Alpha           float64
	DriftThreshold  float64
	MinObservations int
	CooldownIters   int
	InitialRate     float64
	// MaxRetries bounds per-group forced replan+retry attempts for a single
	// iteration (default 2).
	MaxRetries int
	// Seed drives plan and strategy construction (fixed seed, reproducible
	// plans).
	Seed int64
	// PartitionSource, when non-nil, turns every group master into a data
	// plane: workers with no local PartitionData fetch their shards over the
	// wire (MsgPartitionReq/MsgPartition) from their group master, which
	// answers partition p with PartitionSource(p). Partition indices are
	// global, so one source serves all groups.
	PartitionSource func(p int) (*ml.Dataset, error)

	// The composable cluster blocks (see internal/clustercfg). Durability: a
	// non-empty CheckpointDir makes training state durable — the root
	// journals every iteration, each group master journals its membership and
	// migrations, and the model is snapshotted every SnapshotEvery iterations
	// (default 10); a fresh run refuses a directory already holding state
	// (checkpoint.ErrExists); Resume instead constructs the hierarchy from
	// the recovered state, with each group's member IDs reserved for
	// ResumeID rejoins and its epoch base raised above everything its journal
	// recorded. HA: a positive LeaseTTL puts the root under the lease in
	// CheckpointDir — construction acquires (or, after a takeover, inherits)
	// the lease, every broadcast and journal write is fenced by its
	// generation, and losing it turns run failures into ha.ErrFenced (Holder
	// defaults to "shard-root"). Telemetry: a non-nil Obs receives iteration
	// phase spans at the root, per-group roster and control-plane metrics,
	// checkpoint and lease metrics, and the structured event journal.
	clustercfg.DurabilityConfig
	clustercfg.HAConfig
	clustercfg.TelemetryConfig
	// Wire selects the run's gradient codec: every group master names it in
	// its workers' hello acks, and the workers upload in it. Group sums never
	// leave the root's process, so they are not quantized.
	Wire clustercfg.WireConfig
}

// core maps the config onto the root core's shared view of it.
func (c *Config) core() rootcore.Config {
	return rootcore.Config{
		K: c.K, S: c.S, Model: c.Model, Optimizer: c.Optimizer, InitialParams: c.InitialParams,
		Iterations: c.Iterations, SampleCount: c.SampleCount, IterTimeout: c.IterTimeout,
		LossEvery: c.LossEvery, LossFn: c.LossFn,
		DurabilityConfig: c.DurabilityConfig, HAConfig: c.HAConfig, TelemetryConfig: c.TelemetryConfig, Wire: c.Wire,
		Name: "sharded", DefaultHolder: "shard-root", BadConfig: ErrBadConfig,
	}
}

// GroupStats summarises one group's run.
type GroupStats struct {
	// Group is the coding-group index; Workers its planned worker count.
	Group, Workers int
	// Epochs is the group-local plan epoch each iteration decoded under.
	Epochs []int
	// Replans is the group's migration history (initial plan included).
	Replans []elastic.ReplanEvent
	// Stats are the group's fencing counters, as in the flat runtime's
	// result.
	roster.Stats
	// Joins and Deaths count the group's membership events (rejoins count
	// as joins), mirroring the flat runtime's bookkeeping.
	Joins, Deaths int
}

// Result summarises a sharded training run.
type Result struct {
	// Progress is the root core's bookkeeping: final Params, StartIter,
	// IterTimes (with Summary), the loss Curve and the lease RootGen.
	rootcore.Progress
	// Groups holds per-group statistics, indexed by group.
	Groups []GroupStats
}

// Root is the top of the hierarchy: it owns the shard plan and hosts one
// coding group per plan group in its own process, each with its own worker
// listener, and drives the global BSP loop over them. Every iteration runs
// each group's iteration on the root's parameters concurrently, reduces the
// decoded sums along the tree and steps the optimizer.
type Root struct {
	cfg    Config
	plan   *Plan
	core   *rootcore.Core // lease, store and training state
	groups []*group       // indexed by group; nil until NewRoot built them all
	closed sync.Once

	// resume is the recovered checkpoint of a resumed bring-up: it seeds
	// every group's controller.
	resume *checkpoint.State
}

// NewRoot validates the config, builds the shard plan, brings the root up
// (its lease token publishes addr) and starts every group's worker listener
// on addr's host at a free port. Workers dial their group's address
// (GroupAddrs/GroupOf) with the elastic worker protocol.
func NewRoot(cfg Config, addr string) (*Root, error) {
	cc := cfg.core()
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Throughputs) == 0 {
		return nil, fmt.Errorf("%w: no workers", ErrBadConfig)
	}
	if cfg.Scheme.FixedShape() {
		return nil, fmt.Errorf("%w: %v cannot run in capacity-split groups", ErrBadConfig, cfg.Scheme)
	}
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: address %q: %v", ErrBadConfig, addr, err)
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	// Layout only: every group's strategy is owned by its controller (the
	// initial group-local replan builds it from the same estimates).
	plan, err := BuildPlanLayout(cfg.Throughputs, PlanConfig{
		K: cfg.K, S: cfg.S, GroupSize: cfg.GroupSize, FanIn: cfg.FanIn,
	})
	if err != nil {
		return nil, err
	}
	r := &Root{cfg: cfg, plan: plan}
	r.core, err = rootcore.Open(cc, addr, rootcore.Hooks{Restore: r.restoreFrom, Groups: r.groupStates})
	if err != nil {
		return nil, err
	}
	groups := make([]*group, plan.NumGroups())
	for g := range groups {
		// The root's journal records the group and its recovered state seeds
		// the controller.
		groups[g], err = newGroup(&r.cfg, plan.Groups[g], g, r.resume, r.core, net.JoinHostPort(host, "0"))
		if err != nil {
			for _, gr := range groups[:g] {
				gr.loop.Eng.Shutdown(false)
			}
			r.core.Close()
			return nil, err
		}
	}
	r.groups = groups
	return r, nil
}

// SuspendLeaseRenewal stops the root from renewing its lease — the fault
// hook simulating a wedged (but not dead) root so a standby can take over.
func (r *Root) SuspendLeaseRenewal() { r.core.SuspendLeaseRenewal() }

// RootGen returns the lease generation this root runs under (0 without a
// lease).
func (r *Root) RootGen() int { return r.core.Gen() }

// restoreFrom keeps a recovered checkpoint for the group controllers; the
// root core restores the training state.
func (r *Root) restoreFrom(state *checkpoint.State) error {
	r.resume = state
	return nil
}

// groupStates completes a snapshot with the per-group summaries: epoch,
// members and the controller's throughput estimates of each live group. The
// resume anchor is written before the groups exist; it carries the recovered
// epoch floors, member sets and controller states, so neither the fencing
// base nor the learned estimates are lost to a crash before the next
// snapshot.
func (r *Root) groupStates(snap *checkpoint.Snapshot) {
	for g := 0; g < r.plan.NumGroups(); g++ {
		if r.groups != nil {
			snap.Groups = append(snap.Groups, r.groups[g].coreState())
			continue
		}
		gs := checkpoint.GroupState{Group: g, Epoch: -1, Members: append([]int(nil), r.resume.GroupMembers[g]...), Ctrl: recoveredCtrl(r.resume, g)}
		if e, ok := r.resume.GroupEpochs[g]; ok {
			gs.Epoch = e
		}
		sort.Ints(gs.Members)
		snap.Groups = append(snap.Groups, gs)
	}
}

// Plan exposes the shard plan (groups, partition ownership, tree).
func (r *Root) Plan() *Plan { return r.plan }

// StartIter returns the first iteration this root will run (non-zero after
// a checkpoint resume).
func (r *Root) StartIter() int { return r.core.StartIter() }

// GroupAddrs returns each group's worker listen address, indexed by group.
func (r *Root) GroupAddrs() []string {
	out := make([]string, len(r.groups))
	for g, gr := range r.groups {
		out[g] = gr.loop.Eng.Addr()
	}
	return out
}

// WaitForWorkers blocks until every group has its planned worker quorum.
func (r *Root) WaitForWorkers(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for g, gr := range r.groups {
		if err := gr.loop.Eng.WaitForMembers(gr.workers, time.Until(deadline)); err != nil {
			return fmt.Errorf("%w: group %d: %v", ErrGroupFailed, g, err)
		}
	}
	return nil
}

// Run executes the sharded BSP loop to completion and shuts everything
// down.
func (r *Root) Run() (*Result, error) {
	defer r.Close()
	n := len(r.groups)
	sums := make([][]float64, n)
	for g := range sums {
		sums[g] = make([]float64, len(r.cfg.InitialParams))
	}
	spans := make([]obs.MemberSpan, n)
	errs := make([]error, n)
	// A group waits IterTimeout per attempt and retries up to MaxRetries
	// times after timeout-driven group-local migrations; its budget must
	// cover them all.
	budget := time.Duration(r.cfg.MaxRetries+1)*r.cfg.IterTimeout + r.cfg.IterTimeout/2
	prog, err := r.core.Train(func(iter int, params []float64, sc *obs.IterScope) (grad.Gradient, int, error) {
		sc.Phase(obs.PhaseCollect)
		start := time.Now()
		var wg sync.WaitGroup
		for g, gr := range r.groups {
			g, gr := g, gr
			wg.Add(1)
			go func() {
				defer wg.Done()
				spans[g], errs[g] = gr.iterate(&r.cfg, iter, params, sums[g], start, start.Add(budget))
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, 0, err
		}
		// The root's trace children are the groups themselves.
		sc.AddMembers(spans)
		sc.Phase(obs.PhaseReduce)
		total, err := r.plan.Tree.Aggregate(sums)
		if err != nil {
			return nil, 0, fmt.Errorf("iteration %d aggregate: %w", iter, err)
		}
		// Epoch -1: plan epochs are group-local here; the epoch gauge is
		// owned by the group replan events.
		return total, -1, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Progress: *prog, Groups: make([]GroupStats, n)}
	for g, gr := range r.groups {
		gr.loop.Eng.Shutdown(true)
		res.Groups[g] = gr.stats()
	}
	r.core.Release()
	return res, nil
}

// Close tears down the root and every group it hosts, cold: workers see a
// dead connection. Safe to call multiple times. Close never releases the
// lease — a closed-but-unreleased lease is a crash as far as a standby is
// concerned, which is exactly the semantics tests and failover drills need;
// Run's success path does release it.
func (r *Root) Close() {
	r.closed.Do(func() {
		for _, gr := range r.groups {
			gr.loop.Eng.Shutdown(false)
		}
		r.core.Close()
	})
}

// RunSharded is the one-call entry point: it builds the hierarchy on addr,
// invokes onListen (so the caller can dial workers at the group addresses),
// waits for every group's worker quorum and trains to completion.
func RunSharded(cfg Config, addr string, waitTimeout time.Duration, onListen func(*Root)) (*Result, error) {
	r, err := NewRoot(cfg, addr)
	if err != nil {
		return nil, err
	}
	if onListen != nil {
		onListen(r)
	}
	if err := r.WaitForWorkers(waitTimeout); err != nil {
		r.Close()
		return nil, err
	}
	return r.Run()
}
