// Package runtime is the real distributed BSP training runtime: an
// ElasticMaster that assigns coded partitions, broadcasts parameters,
// collects coded gradients and decodes the aggregated gradient at the
// earliest decodable moment, and an ElasticWorker that computes, encodes and
// uploads partial gradients — the production counterpart of the paper's
// PyTorch deployment, exercised over TCP loopback in tests and examples.
//
// The master is the live counterpart of the internal/elastic control plane
// and hosts every scheme it plans. It accepts workers for the whole training
// run, ingests their per-iteration telemetry, and when the controller detects
// drift or churn it migrates the cluster to a fresh strategy with an
// epoch-versioned atomic handover: MsgReassign carries (epoch, assignment),
// parameter broadcasts are tagged with the epoch, and gradient uploads from
// any older epoch are rejected before they can reach decode. A fixed-shape
// scheme (naive, cyclic, fractional repetition) keeps one plan over K
// members: its dead members are erasures until a spare or a rejoin restores
// the plan.
//
// All membership machinery — the accept loop, the join/rejoin handshake,
// connection-generation fencing, the migration broadcast and the
// epoch-fenced collect — lives in internal/roster and is shared with the
// sharded runtime's per-group masters; this file only keeps the policy:
// the BSP loop, retry budgets and result bookkeeping.
package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/dataplane"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/rootcore"
	"github.com/hetgc/hetgc/internal/roster"
	"github.com/hetgc/hetgc/internal/transport"
)

// Errors returned by the runtime.
var (
	// ErrBadConfig marks invalid runtime configurations.
	ErrBadConfig = errors.New("runtime: invalid config")
	// ErrIterationTimeout wraps every failure of an iteration: no decodable
	// set within the retry budget, or a forced migration that failed.
	ErrIterationTimeout = errors.New("runtime: iteration deadline exceeded before decodable")
	// ErrTooFewWorkers is returned when the worker quorum did not join in
	// time.
	ErrTooFewWorkers = errors.New("runtime: too few live workers to ever decode")
	// ErrMigrationFailed is returned when a forced replan (after worker
	// deaths made the current epoch undecodable) cannot produce a viable
	// strategy — under a fixed-shape scheme, as soon as fewer than K members
	// are alive. It is the roster engine's sentinel, shared with the sharded
	// runtime.
	ErrMigrationFailed = roster.ErrMigrationFailed
)

// ElasticConfig configures an elastic training master.
type ElasticConfig struct {
	// K is the data-partition count, S the straggler budget; both are fixed
	// across migrations (partition indices are global and stable).
	K, S int
	// Scheme is the strategy family to plan, any of the five (default
	// core.HeterAware; see elastic.Config.Scheme). A fixed-shape scheme
	// needs K members: K is its worker count.
	Scheme core.Kind
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
	// MinWorkers is the membership required before training starts
	// (default the planning quorum: s+1, or K under a fixed-shape scheme).
	MinWorkers int
	// Alpha, DriftThreshold, MinObservations, CooldownIters and InitialRate
	// parameterise the control plane (see elastic.Config).
	Alpha           float64
	DriftThreshold  float64
	MinObservations int
	CooldownIters   int
	InitialRate     float64
	// MaxRetries bounds forced replan+retry attempts for a single iteration
	// after timeouts or mid-iteration deaths (default 2).
	MaxRetries int
	// Seed drives strategy construction — fixed seed, reproducible plans.
	Seed int64
	// PartitionSource, when non-nil, turns the master into the data plane:
	// workers that dial with no local PartitionData fetch their shards over
	// the wire (MsgPartitionReq/MsgPartition, CRC-framed), and the master
	// answers partition p with PartitionSource(p). Nil keeps the in-process
	// behavior where every worker must carry its own PartitionData.
	PartitionSource func(p int) (*ml.Dataset, error)

	// The composable cluster blocks (see internal/clustercfg). Durability:
	// a non-empty CheckpointDir makes training state durable — every
	// migration, iteration and membership event is journaled there, the model
	// is snapshotted every SnapshotEvery iterations (default 10), a fresh run
	// refuses a directory that already holds state (checkpoint.ErrExists),
	// and Resume instead constructs the master from the recovered state:
	// parameters, optimizer state and iteration counter from the newest
	// decodable snapshot; member IDs reserved so workers rejoin their old
	// identities via ResumeID; and the plan epoch base raised above every
	// epoch the journal ever recorded, so gradient uploads encoded before the
	// crash are fenced before decode. HA: a positive LeaseTTL puts the master
	// under the root lease in CheckpointDir — construction acquires the next
	// lease generation (publishing the master's address in the token for
	// discovery), a background loop renews it, every broadcast and upload
	// carries the generation, and journal writes are refused once the lease
	// is lost: a deposed master fails typed with ha.ErrFenced while the new
	// holder trains on (Holder defaults to "elastic-root"). Telemetry: a
	// non-nil Obs attaches the live telemetry plane — per-iteration phase
	// traces, roster/controller/checkpoint/lease metrics and the structured
	// event journal (serve it with obs.Metrics.Serve).
	clustercfg.DurabilityConfig
	clustercfg.HAConfig
	clustercfg.TelemetryConfig
	// Wire selects the run's gradient codec. The master names it in every
	// hello ack, and each worker uploads in it.
	Wire clustercfg.WireConfig
}

// quorum is the fewest members a plan can be built over: s+1, or every one
// of the K slots of a fixed-shape scheme.
func (c *ElasticConfig) quorum() int {
	if c.Scheme.FixedShape() {
		return c.K
	}
	return c.S + 1
}

// core maps the config onto the root core's shared view of it.
func (c *ElasticConfig) core() rootcore.Config {
	return rootcore.Config{
		K: c.K, S: c.S, Model: c.Model, Optimizer: c.Optimizer, InitialParams: c.InitialParams,
		Iterations: c.Iterations, SampleCount: c.SampleCount, IterTimeout: c.IterTimeout,
		LossEvery: c.LossEvery, LossFn: c.LossFn,
		DurabilityConfig: c.DurabilityConfig, HAConfig: c.HAConfig, TelemetryConfig: c.TelemetryConfig, Wire: c.Wire,
		Name: "elastic", DefaultHolder: "elastic-root", BadConfig: ErrBadConfig,
	}
}

// ElasticResult summarises an elastic training run.
type ElasticResult struct {
	// Progress is the root core's bookkeeping: final Params, StartIter,
	// IterTimes (with Summary), the loss Curve and the lease RootGen. Epochs
	// below covers the same iterations as IterTimes.
	rootcore.Progress
	// Epochs records the plan epoch each iteration was decoded under.
	Epochs []int
	// Replans is the migration history (initial plan included).
	Replans []elastic.ReplanEvent
	// Stats are the fencing decisions of the run's collects: uploads rejected
	// by epoch, connection generation or root generation (FencedRejected —
	// frames encoded under a deposed root's broadcast), stragglers and
	// malformed frames skipped, telemetry samples ingested.
	roster.Stats
	// Joins and Deaths count membership events observed during the run.
	Joins, Deaths int
}

// ElasticMaster drives elastic BSP training over TCP workers that may join,
// die and rejoin mid-run. The root lifecycle (lease, store, optimizer step,
// persistence) is the root core's, membership and fencing a roster.Engine's,
// the iteration itself a roster.Loop's; this type wires the three together.
type ElasticMaster struct {
	cfg  ElasticConfig
	core *rootcore.Core
	eng  *roster.Engine
	loop roster.Loop

	// ctrl is the control plane the engine serialises access to; the master
	// touches it directly only before the engine exists (resume).
	ctrl      *elastic.Controller
	recovered []int // member IDs reserved for ResumeID rejoins
	// fence is the highest plan epoch the recovered journal had seen (-1 on
	// a fresh run). Snapshots must never record a group epoch below it: the
	// resume anchor is written before any new plan exists, and losing the
	// fence there would let a second crash resume with colliding epochs.
	fence int
}

// NewElasticMaster validates the config, prepares the control plane and
// starts accepting workers on addr (use "127.0.0.1:0" for tests). Workers
// may connect at any time between NewElasticMaster and the end of Run.
//
// With CheckpointDir set, the master writes through a checkpoint.Store;
// with Resume additionally set, it is constructed from the recovered state
// instead of the configured initial state (see ElasticConfig.Resume).
// Recovery failures are typed: checkpoint.ErrNoCheckpoint when the
// directory holds no state, checkpoint.ErrCorrupt when no snapshot decodes.
func NewElasticMaster(cfg ElasticConfig, addr string) (*ElasticMaster, error) {
	cc := cfg.core()
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	if q := cfg.quorum(); cfg.MinWorkers < 0 || (cfg.MinWorkers > 0 && cfg.MinWorkers < q) {
		return nil, fmt.Errorf("%w: min workers %d below planning quorum %d", ErrBadConfig, cfg.MinWorkers, q)
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	ctrl, err := elastic.NewController(elastic.Config{
		K: cfg.K, S: cfg.S, Scheme: cfg.Scheme,
		Alpha: cfg.Alpha, DriftThreshold: cfg.DriftThreshold,
		MinObservations: cfg.MinObservations, CooldownIters: cfg.CooldownIters,
		InitialRate: cfg.InitialRate,
	}, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	// The listener comes first: the lease token publishes the dial address,
	// so a standby that promotes discovers the live root from the token.
	lis, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	ma := &ElasticMaster{cfg: cfg, ctrl: ctrl, fence: -1}
	ma.core, err = rootcore.Open(cc, lis.Addr(), rootcore.Hooks{Restore: ma.restoreFrom, Groups: ma.groupState})
	if err != nil {
		_ = lis.Close()
		return nil, err
	}
	rcfg := roster.Config{
		Controller:   ctrl,
		WriteTimeout: cfg.IterTimeout,
		K:            cfg.K,
		S:            cfg.S,
		Recovered:    ma.recovered,
		Recorder:     ma.core.Recorder(0),
		Obs:          cfg.Obs,
		Codec:        byte(ma.core.Codec()),
		RootGen:      ma.core.Gen(),
	}
	if cfg.PartitionSource != nil {
		// The master doubles as the data plane: remote workers fetch their
		// shards from the same address they dial for the control plane
		// (first-frame routing in the roster engine keeps the two apart).
		rcfg.PartitionBlob = dataplane.NewSource(cfg.PartitionSource, cfg.K).Blob
	}
	ma.eng, err = roster.New(rcfg, lis)
	if err != nil {
		_ = lis.Close()
		ma.core.Close()
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	ma.loop = roster.Loop{Eng: ma.eng, IterTimeout: cfg.IterTimeout, MaxRetries: cfg.MaxRetries, Fail: ErrIterationTimeout}
	return ma, nil
}

// restoreFrom rebuilds the control plane from a recovered checkpoint: the
// reserved member IDs and the epoch fence (the root core restores the
// training state).
func (ma *ElasticMaster) restoreFrom(state *checkpoint.State) (err error) {
	var snap *elastic.ControllerState
	if state.Snap != nil && len(state.Snap.Groups) > 0 {
		snap = state.Snap.Groups[0].Ctrl
	}
	if ma.recovered, err = ma.ctrl.RestoreDead(snap, state.GroupMembers[0]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	ma.fence = state.MaxEpoch()
	ma.ctrl.SetEpochBase(ma.fence + 1)
	return nil
}

// groupState completes a snapshot with the flat runtime's one group: group
// 0's epoch, members and controller state.
func (ma *ElasticMaster) groupState(snap *checkpoint.Snapshot) {
	// The group epoch is the fencing base the NEXT recovery derives: it must
	// never fall below what this master itself recovered, even before the
	// resumed run's first plan exists (the anchor snapshot).
	gs := checkpoint.GroupState{Group: 0, Epoch: max(snap.Epoch, ma.fence)}
	if ma.eng != nil {
		gs.Ctrl = ma.eng.ControllerState()
	} else {
		gs.Ctrl = ma.ctrl.State() // the resume anchor: no engine yet
	}
	for _, ms := range gs.Ctrl.Members {
		gs.Members = append(gs.Members, ms.ID)
	}
	sort.Ints(gs.Members)
	snap.Groups = []checkpoint.GroupState{gs}
}

// Addr returns the address workers should dial.
func (ma *ElasticMaster) Addr() string { return ma.eng.Addr() }

// WaitForWorkers blocks until the configured MinWorkers (default the
// planning quorum) members have joined.
func (ma *ElasticMaster) WaitForWorkers(timeout time.Duration) error {
	min := ma.cfg.MinWorkers
	if min == 0 {
		min = ma.cfg.quorum()
	}
	if err := ma.eng.WaitForMembers(min, timeout); err != nil {
		return fmt.Errorf("%w: %v", ErrTooFewWorkers, err)
	}
	return nil
}

// Run executes the elastic BSP loop: replan/migrate at iteration boundaries
// when the controller asks for it, then broadcast, collect, decode and step.
// Mid-iteration deaths that make the current epoch undecodable force an
// immediate migration and a retry of the same iteration under the new epoch.
func (ma *ElasticMaster) Run() (_ *ElasticResult, err error) {
	// Graceful shutdown from the run goroutine itself: Run is the member
	// connections' only writer, so only it may send the shutdown frames.
	// (External Close calls race Run's sends and must close cold instead.)
	// A deposed master closes cold too: its workers now belong to the
	// successor generation, and a MsgShutdown would dismiss them for good.
	defer ma.core.Close()
	defer func() { ma.eng.Shutdown(!errors.Is(err, ha.ErrFenced)) }()
	res := &ElasticResult{}
	g := grad.GetBuffer(ma.cfg.Model.Dim()) // the decoded gradient, reused every iteration
	defer grad.PutBuffer(g)
	prog, err := ma.core.Train(func(iter int, params []float64, sc *obs.IterScope) (grad.Gradient, int, error) {
		if err := ma.loop.Iteration(sc, iter, params, g); err != nil {
			return nil, 0, err
		}
		res.Epochs = append(res.Epochs, ma.loop.Plan.Epoch)
		return g, ma.loop.Plan.Epoch, nil
	})
	if err != nil {
		return nil, err
	}
	res.Progress = *prog
	res.Stats = ma.loop.Stats
	res.Joins = ma.eng.Joins()
	res.Deaths = ma.eng.Deaths()
	res.Replans = ma.eng.Events()
	ma.core.Release()
	return res, nil
}

// SuspendLeaseRenewal stops extending the HA lease without stopping the
// master (see rootcore.Core.SuspendLeaseRenewal).
func (ma *ElasticMaster) SuspendLeaseRenewal() { ma.core.SuspendLeaseRenewal() }

// RootGen returns the lease generation this master holds (0 without a
// lease) — the fencing token stamped on every broadcast.
func (ma *ElasticMaster) RootGen() int { return ma.core.Gen() }

// RunElastic is the one-call entry point: it starts an elastic master on
// addr, waits up to waitTimeout for the configured MinWorkers (default the
// planning quorum) to join, then trains to completion. Workers dial addr with
// DialElasticWorker at any time — before training starts or mid-run.
func RunElastic(cfg ElasticConfig, addr string, waitTimeout time.Duration) (*ElasticResult, error) {
	ma, err := NewElasticMaster(cfg, addr)
	if err != nil {
		return nil, err
	}
	if err := ma.WaitForWorkers(waitTimeout); err != nil {
		ma.Close()
		return nil, err
	}
	return ma.Run()
}

// StartIter returns the first iteration this master will run (non-zero
// after a checkpoint resume).
func (ma *ElasticMaster) StartIter() int { return ma.core.StartIter() }

// Close shuts down workers, the listener and the reader goroutines. Safe to
// call multiple times and from any goroutine: it closes connections cold,
// because sending shutdown frames would race Run's own writes (Run performs
// the graceful variant itself when it returns). It never releases the lease.
func (ma *ElasticMaster) Close() {
	ma.eng.Shutdown(false)
	ma.core.Close()
}
