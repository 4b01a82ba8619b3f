// The training root: a Root hosts G ≥ 1 coding groups, each a group master
// with its own worker listener, its own group-local elastic control plane
// (drift or churn in a group migrates only that group) and its own
// epoch-fenced BSP collect/decode loop. A flat cluster is the G = 1 root: its
// one group plans over all K partitions on the root's own address, and its
// iteration is the root's. With more groups the root runs every group's
// iteration on its parameters concurrently and reduces the decoded sums along
// the configured fan-in tree; either way it then steps the optimizer.
//
// With a positive LeaseTTL the root runs under the HA lease in
// CheckpointDir: its generation fences every group's broadcasts and its
// workers' uploads, and the journal guard refuses writes the moment the
// lease is lost (see internal/ha). The groups live and die with their root:
// after a restart or a takeover, workers redial the successor's group
// addresses with their member IDs.
//
// Workers speak the elastic worker protocol (hello/ack, MsgReassign,
// epoch-tagged params and gradients, telemetry), so
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
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/rootcore"
	"github.com/hetgc/hetgc/internal/roster"
	"github.com/hetgc/hetgc/internal/transport"
)

// Errors returned by the root.
var (
	// ErrBadConfig marks invalid root configurations.
	ErrBadConfig = rootcore.ErrBadConfig
	// ErrGroupFailed is returned when a coding group cannot make progress:
	// it lost its planning quorum, timed out beyond its retry budget, could
	// not migrate, or decoded a non-finite sum.
	ErrGroupFailed = errors.New("root: group failed")
)

// DefaultChunkLen is a gradient chunk length for transport.ChunkGradient:
// 512 KiB sub-frames of float64 elements.
const DefaultChunkLen = 1 << 16

// Config configures a training root.
type Config struct {
	// K is the global data-partition count, S the per-group straggler
	// budget. Scheme is the strategy family every group's controller builds,
	// any of the five (default core.HeterAware; see elastic.Config.Scheme).
	K, S   int
	Scheme core.Kind
	// Throughputs are the planned per-worker speed estimates: their length
	// fixes the worker count, GroupSize and FanIn shape the group layout (see
	// PlanConfig), and each group waits for its planned workers before
	// training starts. With no Throughputs the root runs one group over all K
	// partitions, whose workers may join at any time. A fixed-shape scheme
	// needs one member per partition, which a capacity-split group does not
	// have, so it is refused in a root of more than one group.
	Throughputs []float64
	GroupSize   int
	FanIn       int
	// MinWorkers is the membership a root with no Throughputs requires
	// before training starts (default the planning quorum: s+1, or K under a
	// fixed-shape scheme).
	MinWorkers int
	// Model is the model being trained; Optimizer applies decoded gradients
	// to the parameters, seeded by InitialParams (length Model.Dim()).
	// Iterations is the run length, SampleCount the training-set size that
	// scales gradients to means, IterTimeout the bound on one collect. With
	// LossEvery > 0 and LossFn set, the loss is recorded every LossEvery
	// iterations.
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
	// Seed drives plan and strategy construction (fixed seed, reproducible
	// plans): the one group of a one-group root plans on Seed, group g of a
	// larger root on Seed+g+1.
	Seed int64
	// PartitionSource, when non-nil, turns every group master into a data
	// plane: workers with no local PartitionData fetch their shards over the
	// wire (MsgPartitionReq/MsgPartition, CRC-framed) from their group
	// master, which answers partition p with PartitionSource(p). Partition
	// indices are global, so one source serves all groups.
	PartitionSource func(p int) (*ml.Dataset, error)

	// The composable cluster blocks (see internal/clustercfg). Durability: a
	// non-empty CheckpointDir makes training state durable — the root
	// journals every iteration, each group journals its membership and
	// migrations, and the model is snapshotted every SnapshotEvery iterations
	// (default 10); a fresh run refuses a directory already holding state
	// (checkpoint.ErrExists); Resume instead constructs the root from the
	// recovered state: parameters, optimizer state and iteration counter from
	// the newest decodable snapshot, each group's member IDs reserved for
	// ResumeID rejoins and its epoch base raised above everything its journal
	// recorded, so gradient uploads encoded before the crash are fenced
	// before decode. HA: a positive LeaseTTL puts the root under the lease in
	// CheckpointDir — construction acquires the next lease generation
	// (publishing the root's address in the token for discovery), a
	// background loop renews it, every broadcast and upload carries the
	// generation, and journal writes are refused once the lease is lost: a
	// deposed root fails typed with ha.ErrFenced while the new holder trains
	// on (Holder defaults to rootcore.DefaultHolder). Telemetry: a non-nil
	// Obs receives iteration phase spans at the root, per-group roster and
	// control-plane metrics, checkpoint and lease metrics, and the structured
	// event journal (serve it with obs.Metrics.Serve).
	clustercfg.DurabilityConfig
	clustercfg.HAConfig
	clustercfg.TelemetryConfig
	// Wire selects the run's gradient codec: every group master names it in
	// its workers' hello acks, and the workers upload in it. Group sums never
	// leave the root's process, so they are not quantized.
	Wire clustercfg.WireConfig
}

// quorum is the fewest members a plan can be built over: s+1, or every one
// of the K slots of a fixed-shape scheme.
func (c *Config) quorum() int {
	if c.Scheme.FixedShape() {
		return c.K
	}
	return c.S + 1
}

// core maps the config onto the root core's view of it.
func (c *Config) core() rootcore.Config {
	return rootcore.Config{
		K: c.K, S: c.S, Model: c.Model, Optimizer: c.Optimizer, InitialParams: c.InitialParams,
		Iterations: c.Iterations, SampleCount: c.SampleCount, IterTimeout: c.IterTimeout,
		LossEvery: c.LossEvery, LossFn: c.LossFn,
		DurabilityConfig: c.DurabilityConfig, HAConfig: c.HAConfig, TelemetryConfig: c.TelemetryConfig, Wire: c.Wire,
	}
}

// layout is the root's group layout: one group over every partition without
// Throughputs, BuildPlanLayout's groups with them.
func (c *Config) layout() (*Plan, error) {
	if len(c.Throughputs) > 0 {
		return BuildPlanLayout(c.Throughputs, PlanConfig{K: c.K, S: c.S, GroupSize: c.GroupSize, FanIn: c.FanIn})
	}
	parts := make([]int, c.K)
	for p := range parts {
		parts[p] = p
	}
	return &Plan{K: c.K, S: c.S, Groups: []*Group{{Parts: parts}}, Tree: NewTree(1, c.FanIn)}, nil
}

// GroupStats summarises one group's run.
type GroupStats struct {
	// Group is the coding-group index; Workers its planned worker count (0
	// without Throughputs).
	Group, Workers int
	// Epochs is the group-local plan epoch each iteration decoded under.
	Epochs []int
	// Replans is the group's migration history (initial plan included).
	Replans []elastic.ReplanEvent
	// Stats are the fencing decisions of the group's collects: uploads
	// rejected by epoch, connection generation or root generation
	// (FencedRejected — frames encoded under a deposed root's broadcast),
	// stragglers and malformed frames skipped, telemetry samples ingested.
	roster.Stats
	// Joins and Deaths count the group's membership events (rejoins count
	// as joins).
	Joins, Deaths int
}

// Result summarises a training run.
type Result struct {
	// Progress is the root core's bookkeeping: final Params, StartIter,
	// IterTimes (with Summary), the loss Curve and the lease RootGen.
	rootcore.Progress
	// Groups holds per-group statistics, indexed by group; each group's
	// Epochs covers the same iterations as IterTimes.
	Groups []GroupStats
}

// Root is the training root: it owns the group layout, hosts one coding
// group per layout group in its own process, each with its own worker
// listener, and drives the BSP loop over them. The root lifecycle (lease,
// store, optimizer step, persistence) is the root core's, membership and
// fencing each group's roster.Engine's, one group iteration its group's.
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

// NewRoot validates the config, lays out the groups and brings the root up.
// A one-group root listens on addr itself (use "127.0.0.1:0" in tests),
// before the bring-up, so the lease token publishes the bound address and a
// standby that promotes discovers the live root from it. A larger root's
// token publishes addr, and every group listens on addr's host at a free
// port. Workers dial Addr, or their group's address (GroupAddrs/GroupOf),
// with the elastic worker protocol, at any time until Run ends.
//
// With CheckpointDir set the root writes through a checkpoint.Store; with
// Resume additionally set it is constructed from the recovered state (see
// Config). Recovery failures are typed: checkpoint.ErrNoCheckpoint when the
// directory holds no state, checkpoint.ErrCorrupt when no snapshot decodes.
func NewRoot(cfg Config, addr string) (*Root, error) {
	cc := cfg.core()
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	if q := cfg.quorum(); cfg.MinWorkers < 0 || (cfg.MinWorkers > 0 && cfg.MinWorkers < q) {
		return nil, fmt.Errorf("%w: min workers %d below planning quorum %d", ErrBadConfig, cfg.MinWorkers, q)
	}
	// Layout only: every group's strategy is owned by its controller (the
	// initial group-local replan builds it from the same estimates).
	plan, err := cfg.layout()
	if err != nil {
		return nil, err
	}
	one := plan.NumGroups() == 1
	if !one && cfg.Scheme.FixedShape() {
		return nil, fmt.Errorf("%w: %v cannot run in capacity-split groups", ErrBadConfig, cfg.Scheme)
	}
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: address %q: %v", ErrBadConfig, addr, err)
	}
	var lis *transport.Listener // the one group's, on the root's address
	if one {
		if lis, err = transport.Listen(addr); err != nil {
			return nil, err
		}
		addr = lis.Addr()
	}
	r := &Root{cfg: cfg, plan: plan}
	if r.core, err = rootcore.Open(cc, addr, rootcore.Hooks{Restore: r.restoreFrom, Groups: r.groupStates}); err != nil {
		if lis != nil {
			_ = lis.Close()
		}
		return nil, err
	}
	groups := make([]*group, plan.NumGroups())
	for g := range groups {
		if !one {
			lis, err = transport.Listen(net.JoinHostPort(host, "0"))
		}
		if err == nil {
			// The root's journal records the group and its recovered state
			// seeds the controller.
			groups[g], err = newGroup(&r.cfg, plan, g, r.resume, r.core, lis)
		}
		if err != nil {
			for _, gr := range groups[:g] {
				gr.eng.Shutdown(false)
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

// Plan exposes the group layout (groups, partition ownership, tree).
func (r *Root) Plan() *Plan { return r.plan }

// StartIter returns the first iteration this root will run (non-zero after
// a checkpoint resume).
func (r *Root) StartIter() int { return r.core.StartIter() }

// Addr returns the address the workers of a one-group root dial: its one
// group's listener, on the root's own address. Workers of a larger root dial
// their group's address (GroupAddrs).
func (r *Root) Addr() string { return r.groups[0].eng.Addr() }

// GroupAddrs returns each group's worker listen address, indexed by group.
func (r *Root) GroupAddrs() []string {
	out := make([]string, len(r.groups))
	for g, gr := range r.groups {
		out[g] = gr.eng.Addr()
	}
	return out
}

// ControllerState returns group g's live control-plane state: its members
// and their throughput estimates, as a snapshot would record them.
func (r *Root) ControllerState(g int) *elastic.ControllerState {
	return r.groups[g].eng.ControllerState()
}

// WaitForWorkers blocks until every group has the membership it needs to
// start: its planned workers, or MinWorkers (default the planning quorum)
// in a root with no Throughputs.
func (r *Root) WaitForWorkers(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for g, gr := range r.groups {
		need := gr.workers
		if need == 0 {
			need = max(r.cfg.MinWorkers, r.cfg.quorum())
		}
		if err := gr.eng.WaitForMembers(need, time.Until(deadline)); err != nil {
			return fmt.Errorf("%w: group %d: %w", ErrGroupFailed, g, err)
		}
	}
	return nil
}

// Run executes the BSP loop to completion and shuts everything down. Every
// iteration runs each group's iteration on the root's parameters — the one
// group's inline, more groups concurrently with their sums reduced along the
// tree — and steps the optimizer. A group whose iteration fails retries it
// after a migration; the run fails with ErrGroupFailed once a group cannot
// go on (see group.iterate).
func (r *Root) Run() (_ *Result, err error) {
	defer r.Close()
	// Graceful shutdown from the run goroutine itself: Run is the member
	// connections' only writer, so only it may send the shutdown frames
	// (Close races those writes and closes cold). A deposed root closes cold
	// too: its workers now belong to the successor generation, and a
	// MsgShutdown would dismiss them for good.
	defer func() {
		for _, gr := range r.groups {
			gr.eng.Shutdown(!errors.Is(err, ha.ErrFenced))
		}
	}()
	n := len(r.groups)
	sums := make([][]float64, n)
	for g := range sums {
		sums[g] = make([]float64, len(r.cfg.InitialParams))
	}
	collect := func(iter int, params []float64, sc *obs.IterScope) (grad.Gradient, int, error) {
		// One group: its iteration is the root's, run inline under the
		// root's scope, so the member spans stay root children and the plan
		// epoch is the root's.
		gr := r.groups[0]
		if err := gr.iterate(&r.cfg, sc, iter, params, sums[0]); err != nil {
			return nil, 0, err
		}
		return sums[0], gr.plan.Epoch, nil
	}
	if n > 1 {
		spans := make([]obs.MemberSpan, n)
		errs := make([]error, n)
		collect = func(iter int, params []float64, sc *obs.IterScope) (grad.Gradient, int, error) {
			sc.Phase(obs.PhaseCollect)
			start := time.Now()
			var wg sync.WaitGroup
			for g, gr := range r.groups {
				g, gr := g, gr
				wg.Add(1)
				go func() {
					defer wg.Done()
					if errs[g] = gr.iterate(&r.cfg, nil, iter, params, sums[g]); errs[g] == nil {
						spans[g] = gr.span(start)
					}
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
		}
	}
	prog, err := r.core.Train(collect)
	if err != nil {
		return nil, err
	}
	res := &Result{Progress: *prog, Groups: make([]GroupStats, n)}
	for g, gr := range r.groups {
		res.Groups[g] = gr.stats()
	}
	r.core.Release()
	return res, nil
}

// Close tears down the root and every group it hosts, cold: workers see a
// dead connection. Safe to call multiple times and from any goroutine. Close
// never releases the lease — a closed-but-unreleased lease is a crash as far
// as a standby is concerned, which is exactly the semantics tests and
// failover drills need; Run's success path does release it.
func (r *Root) Close() {
	r.closed.Do(func() {
		for _, gr := range r.groups {
			gr.eng.Shutdown(false)
		}
		r.core.Close()
	})
}
