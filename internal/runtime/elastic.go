// Elastic master: the live counterpart of the internal/elastic control
// plane. Unlike Master — which freezes one strategy and treats every worker
// failure as permanent — the ElasticMaster accepts workers for the whole
// training run, ingests their per-iteration telemetry, and when the
// controller detects drift or churn it migrates the cluster to a fresh
// strategy with an epoch-versioned atomic handover: MsgReassign carries
// (epoch, assignment), parameter broadcasts are tagged with the epoch, and
// gradient uploads from any older epoch are rejected before they can reach
// decode.
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
	"sync"
	"sync/atomic"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/dataplane"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/metrics"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/roster"
	"github.com/hetgc/hetgc/internal/transport"
)

// ErrMigrationFailed is returned when a forced replan (after worker deaths
// made the current epoch undecodable) cannot produce a viable strategy. It
// is the roster engine's sentinel, shared with the sharded runtime.
var ErrMigrationFailed = roster.ErrMigrationFailed

// ElasticConfig configures an elastic training master.
type ElasticConfig struct {
	// K is the data-partition count, S the straggler budget; both are fixed
	// across migrations (partition indices are global and stable).
	K, S int
	// Scheme is the strategy family to plan: core.HeterAware (default) or
	// core.GroupBased.
	Scheme core.Kind
	// Model, Optimizer, InitialParams, Iterations, SampleCount, IterTimeout,
	// LossEvery and LossFn mirror MasterConfig.
	Model         ml.Model
	Optimizer     ml.Optimizer
	InitialParams []float64
	Iterations    int
	SampleCount   int
	IterTimeout   time.Duration
	LossEvery     int
	LossFn        func(params []float64) (float64, error)
	// MinWorkers is the membership required before training starts
	// (default s+1, the planning quorum).
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
	// Wire selects the gradient codec the master offers each worker at its
	// hello: workers that advertise it upload quantized payloads, everyone
	// else stays on raw float64 (mixed-version interop). Not embedded — its
	// Codec field would be shadow-prone next to the deprecated aliases below.
	Wire clustercfg.WireConfig

	// Deprecated: flat aliases for the embedded cluster blocks above, kept
	// for one release so existing composite literals compile unchanged. Set
	// DurabilityConfig.CheckpointDir (etc.) instead; when both views are set
	// the embedded field wins. normalize merges and mirrors them, so reads
	// through either view agree everywhere past the constructor.
	CheckpointDir string
	// Deprecated: set DurabilityConfig.SnapshotEvery.
	SnapshotEvery int
	// Deprecated: set DurabilityConfig.Resume.
	Resume bool
	// Deprecated: set HAConfig.LeaseTTL.
	LeaseTTL time.Duration
	// Deprecated: set HAConfig.Holder.
	Holder string
	// Deprecated: set TelemetryConfig.Obs.
	Obs *obs.Metrics
}

// normalize merges the deprecated flat aliases into the embedded cluster
// blocks (the embedded field wins when both are set) and mirrors the merged
// values back onto the aliases, so internal reads through either view agree.
func (c *ElasticConfig) normalize() {
	c.DurabilityConfig = c.DurabilityConfig.Merge(c.CheckpointDir, c.SnapshotEvery, c.Resume)
	c.HAConfig = c.HAConfig.Merge(c.LeaseTTL, c.Holder)
	c.TelemetryConfig = c.TelemetryConfig.Merge(c.Obs)
	c.CheckpointDir = c.DurabilityConfig.CheckpointDir
	c.SnapshotEvery = c.DurabilityConfig.SnapshotEvery
	c.Resume = c.DurabilityConfig.Resume
	c.LeaseTTL = c.HAConfig.LeaseTTL
	c.Holder = c.HAConfig.Holder
	c.Obs = c.TelemetryConfig.Obs
}

func (c *ElasticConfig) validate() error {
	if c.Model == nil || c.Optimizer == nil {
		return fmt.Errorf("%w: model/optimizer required", ErrBadConfig)
	}
	if len(c.InitialParams) != c.Model.Dim() {
		return fmt.Errorf("%w: %d initial params, model wants %d", ErrBadConfig, len(c.InitialParams), c.Model.Dim())
	}
	if c.K <= 0 || c.S < 0 {
		return fmt.Errorf("%w: k=%d s=%d", ErrBadConfig, c.K, c.S)
	}
	if c.Iterations <= 0 || c.SampleCount <= 0 {
		return fmt.Errorf("%w: iterations=%d samples=%d", ErrBadConfig, c.Iterations, c.SampleCount)
	}
	if c.IterTimeout <= 0 {
		return fmt.Errorf("%w: iteration timeout required", ErrBadConfig)
	}
	if c.MinWorkers < 0 || (c.MinWorkers > 0 && c.MinWorkers < c.S+1) {
		return fmt.Errorf("%w: min workers %d below planning quorum s+1=%d", ErrBadConfig, c.MinWorkers, c.S+1)
	}
	if c.Resume && c.CheckpointDir == "" {
		return fmt.Errorf("%w: resume requires a checkpoint directory", ErrBadConfig)
	}
	if c.LeaseTTL > 0 && c.CheckpointDir == "" {
		return fmt.Errorf("%w: lease requires a checkpoint directory", ErrBadConfig)
	}
	if _, err := c.wireCodec(); err != nil {
		return err
	}
	return nil
}

// wireCodec parses the configured codec preference (empty means raw).
func (c *ElasticConfig) wireCodec() (grad.Codec, error) {
	if c.Wire.Codec == "" {
		return grad.CodecRaw, nil
	}
	codec, err := grad.ParseCodec(c.Wire.Codec)
	if err != nil {
		return grad.CodecRaw, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return codec, nil
}

// ElasticResult summarises an elastic training run.
type ElasticResult struct {
	// Params are the final parameters.
	Params []float64
	// StartIter is the first iteration this run executed (non-zero when the
	// master was resumed from a checkpoint; IterTimes and Epochs cover
	// iterations StartIter..).
	StartIter int
	// IterTimes are per-iteration wall times in seconds.
	IterTimes []float64
	// Epochs records the plan epoch each iteration was decoded under.
	Epochs []int
	// Summary summarises IterTimes.
	Summary metrics.Summary
	// Curve is (cumulative seconds, loss) when loss recording was enabled.
	Curve metrics.Series
	// Replans is the migration history (initial plan included).
	Replans []elastic.ReplanEvent
	// StaleEpochRejected counts gradient uploads rejected because they were
	// encoded under a superseded plan epoch — fenced before decode.
	StaleEpochRejected int
	// StragglersSkipped counts current-epoch uploads that arrived after
	// their iteration had already decoded.
	StragglersSkipped int
	// MalformedSkipped counts uploads rejected before decode (wrong length,
	// NaN/Inf, transport validation failures).
	MalformedSkipped int
	// StaleConnRejected counts frames rejected because they arrived from a
	// superseded connection generation (the member rejoined while they were
	// in flight).
	StaleConnRejected int
	// TelemetrySamples counts telemetry reports ingested by the controller.
	TelemetrySamples int
	// Joins and Deaths count membership events observed during the run.
	Joins, Deaths int
	// RootGen is the lease generation this master held (0 without a lease).
	RootGen int
	// FencedUploads counts gradient uploads rejected by the root-generation
	// fence — frames encoded under a deposed root's broadcast.
	FencedUploads int
}

// ElasticMaster drives elastic BSP training over TCP workers that may join,
// die and rejoin mid-run. Membership and fencing are delegated to a
// roster.Engine; this type owns the training policy.
type ElasticMaster struct {
	cfg ElasticConfig
	eng *roster.Engine

	// Durable-state wiring (nil/zero without CheckpointDir).
	store     *checkpoint.Store
	params    []float64 // starting parameters (recovered on resume)
	startIter int
	step      int
	clock     float64
	// fence is the highest plan epoch the recovered journal had seen (-1 on
	// a fresh run). Snapshots must never record a group epoch below it: the
	// resume anchor is written before any new plan exists, and losing the
	// fence there would let a second crash resume with colliding epochs.
	fence int
	// lease is the HA root lease (nil without LeaseTTL). renewSuspended is
	// the fault-injection hook: once set, the renewal loop stops extending
	// the lease, the TTL lapses, and a standby may take over — this master
	// becomes the zombie whose writes get fenced.
	lease          *ha.Lease
	renewSuspended atomic.Bool
	// stopRenew stops the renewal loop (idempotent; no-op without a lease).
	// Renewal starts in the constructor so the lease survives however long
	// worker admission takes before Run.
	stopRenew func()
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
	cfg.normalize()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.CheckpointDir != "" && cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 10
		cfg.DurabilityConfig.SnapshotEvery = 10
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
	ma := &ElasticMaster{cfg: cfg, params: append([]float64(nil), cfg.InitialParams...), fence: -1, stopRenew: func() {}}
	var recovered []int
	if cfg.CheckpointDir != "" && cfg.Resume {
		state, err := checkpoint.Recover(cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
		if recovered, err = ma.restoreFrom(state, ctrl); err != nil {
			return nil, err
		}
	}
	// The listener comes first: the lease token publishes the dial address,
	// so a standby that promotes discovers the live root from the token.
	l, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	if cfg.LeaseTTL > 0 {
		holder := cfg.Holder
		if holder == "" {
			holder = "elastic-root"
		}
		ma.lease, err = ha.Acquire(cfg.CheckpointDir, holder, l.Addr(), cfg.LeaseTTL)
		if err != nil {
			_ = l.Close()
			return nil, err
		}
		cfg.Obs.OnLease(uint64(ma.lease.Gen()))
		// Renewal starts now, not in Run: worker admission between the two
		// can outlast a short TTL, and the lease must not lapse then.
		ch := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go ma.renewLoop(ch, &wg)
		var once sync.Once
		ma.stopRenew = func() { once.Do(func() { close(ch); wg.Wait() }) }
	}
	if cfg.CheckpointDir != "" {
		if cfg.Resume {
			ma.store, err = checkpoint.Reopen(cfg.CheckpointDir)
		} else {
			ma.store, err = checkpoint.Create(cfg.CheckpointDir)
		}
		if err != nil {
			ma.stopRenew()
			_ = l.Close()
			return nil, err
		}
		ma.store.SetMetrics(cfg.Obs)
		if ma.lease != nil {
			// Every journal append and snapshot re-checks the lease: the
			// moment a newer generation holds it, this master's writes are
			// refused — a deposed root can never extend state the new
			// holder already owns.
			ma.store.SetGuard(ma.lease.Check)
		}
		if cfg.Resume {
			// Anchor a fresh generation with the resumed state before any
			// journal append: crash-during-resume re-recovers this exact
			// state, and the old (possibly torn) journal is never extended.
			if err := ma.store.WriteSnapshot(ma.snapshot(ctrl.State(), ma.startIter, -1, ma.clock, ma.params)); err != nil {
				ma.stopRenew()
				_ = l.Close()
				ma.closeStore()
				return nil, err
			}
		}
	}
	var rec roster.Recorder
	if ma.store != nil {
		rec = ma.store.GroupRecorder(0)
	}
	cfg.Obs.BindWire(transport.Wire)
	cfg.Obs.BindWireCodecs(grad.CodecNames(), transport.WireCodec)
	codec, _ := cfg.wireCodec() // validated above
	rcfg := roster.Config{
		Controller:   ctrl,
		WriteTimeout: cfg.IterTimeout,
		K:            cfg.K,
		S:            cfg.S,
		Recovered:    recovered,
		Recorder:     rec,
		Obs:          cfg.Obs,
		Codec:        byte(codec),
	}
	if ma.lease != nil {
		rcfg.RootGen = ma.lease.Gen()
	}
	if cfg.PartitionSource != nil {
		// The master doubles as the data plane: remote workers fetch their
		// shards from the same address they dial for the control plane
		// (first-frame routing in the roster engine keeps the two apart).
		rcfg.PartitionBlob = dataplane.NewSource(cfg.PartitionSource, cfg.K).Blob
	}
	eng, err := roster.New(rcfg, l)
	if err != nil {
		ma.stopRenew()
		_ = l.Close()
		ma.closeStore()
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	ma.eng = eng
	return ma, nil
}

// restoreFrom rebuilds the master's starting state from a recovered
// checkpoint: parameters, optimizer state, iteration counter, the reserved
// member IDs, and the epoch fence.
func (ma *ElasticMaster) restoreFrom(state *checkpoint.State, ctrl *elastic.Controller) ([]int, error) {
	recovered := append([]int(nil), state.GroupMembers[0]...)
	// Membership restores in snapshot order (join order) with warm meters;
	// journal-only joiners follow with cold priors. Everyone starts dead:
	// their connections died with the crashed master, and rejoining via
	// ResumeID revives them.
	var ctrlState elastic.ControllerState
	seen := make(map[int]bool)
	if state.Snap != nil && state.Snap.Ctrl != nil {
		for _, ms := range state.Snap.Ctrl.Members {
			ms.Alive = false
			ctrlState.Members = append(ctrlState.Members, ms)
			seen[ms.ID] = true
		}
		ctrlState.Events = state.Snap.Ctrl.Events
	}
	for _, id := range recovered {
		if !seen[id] {
			ctrlState.Members = append(ctrlState.Members, elastic.MemberState{ID: id})
		}
	}
	sort.Ints(recovered)
	ctrlState.LastReplan = -1
	if err := ctrl.Restore(&ctrlState); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	ma.fence = state.MaxEpoch()
	ctrl.SetEpochBase(ma.fence + 1)
	ts, err := state.RestoreTraining(ma.cfg.Model.Dim(), ma.cfg.Optimizer)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if ts.Params != nil {
		ma.params = ts.Params
	}
	ma.startIter, ma.step, ma.clock = ts.Iter, ts.Step, ts.Clock
	return recovered, nil
}

// snapshot assembles the durable state at an iteration boundary: nextIter
// is the first iteration NOT folded into params, epoch the current plan
// epoch (-1 before any plan, e.g. the resume anchor).
func (ma *ElasticMaster) snapshot(ctrlState *elastic.ControllerState, nextIter, epoch int, clock float64, params []float64) *checkpoint.Snapshot {
	snap := &checkpoint.Snapshot{
		Iter:   nextIter,
		Epoch:  epoch,
		Step:   ma.step,
		Clock:  clock,
		Params: append([]float64(nil), params...),
		Ctrl:   ctrlState,
	}
	if so, ok := ma.cfg.Optimizer.(ml.StatefulOptimizer); ok {
		snap.OptVecs, snap.OptStep = so.OptimizerState()
	}
	// The group epoch is the fencing base the NEXT recovery derives: it must
	// never fall below what this master itself recovered, even before the
	// resumed run's first plan exists (the anchor snapshot).
	gs := checkpoint.GroupState{Group: 0, Epoch: epoch}
	if ma.fence > gs.Epoch {
		gs.Epoch = ma.fence
	}
	for _, ms := range ctrlState.Members {
		gs.Members = append(gs.Members, ms.ID)
	}
	sort.Ints(gs.Members)
	snap.Groups = []checkpoint.GroupState{gs}
	return snap
}

func (ma *ElasticMaster) closeStore() {
	if ma.store != nil {
		_ = ma.store.Close()
	}
}

// Addr returns the address workers should dial.
func (ma *ElasticMaster) Addr() string { return ma.eng.Addr() }

// WaitForWorkers blocks until the configured MinWorkers (default s+1)
// members have joined.
func (ma *ElasticMaster) WaitForWorkers(timeout time.Duration) error {
	min := ma.cfg.MinWorkers
	if min == 0 {
		min = ma.cfg.S + 1
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
	defer ma.closeStore()
	defer func() { ma.eng.Shutdown(!errors.Is(err, ha.ErrFenced)) }()
	defer ma.stopRenew()
	dim := ma.cfg.Model.Dim()
	params := append([]float64(nil), ma.params...)
	res := &ElasticResult{Curve: metrics.Series{Name: "elastic"}, StartIter: ma.startIter}
	clock := ma.clock
	if ma.cfg.LossFn != nil {
		if l, err := ma.cfg.LossFn(params); err == nil {
			res.Curve.Append(clock, l)
		}
	}
	maxRetries := ma.cfg.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 2
	}

	var stats roster.Stats
	var plan *elastic.Plan
	var cache obs.CacheTracker
	g := grad.GetBuffer(dim) // the decoded gradient, reused every iteration
	defer grad.PutBuffer(g)
	for iter := ma.startIter; iter < ma.cfg.Iterations; iter++ {
		// Control decision at the iteration boundary.
		if replan, reason := ma.eng.ShouldReplan(iter); replan {
			p, err := ma.eng.Migrate(iter, reason)
			if err != nil {
				return nil, ma.fenced(err)
			}
			plan = p
		}

		retries := 0
		for {
			start := time.Now()
			// Broadcast parameters under the current epoch, then gather
			// until the strategy decodes.
			sc := ma.cfg.Obs.StartIter(iter, plan.Epoch)
			sc.SetTraceID(obs.TraceID(uint64(ma.eng.RootGen()), plan.Epoch, iter))
			sc.Phase(obs.PhaseBroadcast)
			ma.eng.BroadcastParams(plan, iter, params)
			sc.Phase(obs.PhaseCollect)
			coeffs, coded, ok := ma.eng.Collect(plan, iter, dim, ma.cfg.IterTimeout, &stats)
			if !ok {
				// The current epoch cannot complete (timeout or fatal
				// deaths): migrate to the live membership and retry this
				// iteration.
				retries++
				if retries > maxRetries {
					return nil, ma.fenced(fmt.Errorf("%w: iteration %d undecodable after %d migrations", ErrIterationTimeout, iter, retries-1))
				}
				p, err := ma.eng.Migrate(iter, "churn")
				if err != nil {
					return nil, ma.fenced(err)
				}
				plan = p
				continue
			}

			// Stitch the engine's member child spans — full contributions
			// plus every partial erased across this iteration's attempts —
			// into the trace before deriving the critical path at End.
			sc.AddMembers(ma.eng.TakeContribs(iter))
			sc.Phase(obs.PhaseDecode)
			if err := grad.CombineInto(g, coeffs, coded); err != nil {
				return nil, fmt.Errorf("iteration %d combine: %w", iter, err)
			}
			ma.eng.Release(coded)
			g.Scale(1 / float64(ma.cfg.SampleCount))
			sc.Phase(obs.PhaseStep)
			if err := ma.cfg.Optimizer.Step(params, g); err != nil {
				return nil, fmt.Errorf("iteration %d step: %w", iter, err)
			}
			ma.step++
			elapsed := time.Since(start).Seconds()
			clock += elapsed
			res.IterTimes = append(res.IterTimes, elapsed)
			res.Epochs = append(res.Epochs, plan.Epoch)
			if ma.cfg.LossFn != nil && ma.cfg.LossEvery > 0 && (iter+1)%ma.cfg.LossEvery == 0 {
				if l, err := ma.cfg.LossFn(params); err == nil {
					res.Curve.Append(clock, l)
				}
			}
			sc.Phase(obs.PhasePersist)
			if err := ma.persist(iter, plan.Epoch, clock, params); err != nil {
				return nil, ma.fenced(err)
			}
			sc.End()
			if ma.cfg.Obs != nil {
				cs := plan.Strategy.DecodeCacheStats()
				cache.Fold(ma.cfg.Obs, plan.Strategy, cs.Hits, cs.Misses)
			}
			break
		}
	}

	res.Params = params
	res.Summary = metrics.Summarize(res.IterTimes)
	res.StaleEpochRejected = stats.StaleEpochRejected
	res.StaleConnRejected = stats.StaleConnRejected
	res.StragglersSkipped = stats.StragglersSkipped
	res.MalformedSkipped = stats.MalformedSkipped
	res.TelemetrySamples = stats.TelemetrySamples
	res.FencedUploads = stats.FencedRejected
	res.Joins = ma.eng.Joins()
	res.Deaths = ma.eng.Deaths()
	res.Replans = ma.eng.Events()
	if ma.lease != nil {
		res.RootGen = ma.lease.Gen()
		// Training complete: stop renewing and expire the lease in place so
		// a standby is not left waiting a full TTL for a root that exited
		// cleanly. The generation stays in the file for monotonicity.
		ma.stopRenew()
		_ = ma.lease.Release()
	}
	return res, nil
}

// renewLoop extends the lease on a cadence well inside the TTL. It stops on
// the stop signal, when SuspendLeaseRenewal has been called (fault
// injection: a stalled root), or when renewal observes the fence — in the
// latter cases the lease lapses and a standby may take over; the store guard
// then fails the run typed at the next persist.
func (ma *ElasticMaster) renewLoop(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	interval := ma.lease.TTL() / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if ma.renewSuspended.Load() {
				return
			}
			if err := ma.lease.Renew(); err != nil {
				return
			}
			ma.cfg.Obs.OnRenewal()
		}
	}
}

// SuspendLeaseRenewal stops extending the HA lease without stopping the
// master — the fault-injection hook that turns this master into a zombie: it
// keeps training until a standby takes over, after which its journal writes
// and its workers' uploads are rejected and Run fails wrapping ha.ErrFenced.
// No-op without a lease.
func (ma *ElasticMaster) SuspendLeaseRenewal() { ma.renewSuspended.Store(true) }

// RootGen returns the lease generation this master holds (0 without a
// lease) — the fencing token stamped on every broadcast.
func (ma *ElasticMaster) RootGen() int {
	if ma.lease == nil {
		return 0
	}
	return ma.lease.Gen()
}

// fenced maps a run failure to the fencing error when the real cause is a
// lost lease: an error observed while a newer generation holds the lease is
// reported wrapping ha.ErrFenced and naming the usurper — the remediation
// the operator needs (this root must exit; workers follow the new token).
func (ma *ElasticMaster) fenced(err error) error {
	if ma.lease == nil || errors.Is(err, ha.ErrFenced) {
		return err
	}
	if verr := ma.lease.Verify(); verr != nil && errors.Is(verr, ha.ErrFenced) {
		return fmt.Errorf("%w (run failed: %v)", verr, err)
	}
	return err
}

// persist journals one completed iteration and snapshots the model on the
// configured cadence. No-op without a checkpoint store. A write failure —
// direct or swallowed earlier by the roster recorder — fails the run: a
// training job that silently stopped being durable is worse than a dead one.
func (ma *ElasticMaster) persist(iter, epoch int, clock float64, params []float64) error {
	if ma.store == nil {
		return nil
	}
	if err := ma.store.Err(); err != nil {
		return fmt.Errorf("iteration %d: journal writes failing: %w", iter, err)
	}
	if err := ma.store.AppendIter(iter, epoch, ma.step); err != nil {
		return fmt.Errorf("iteration %d: %w", iter, err)
	}
	if (iter+1)%ma.cfg.SnapshotEvery == 0 || iter+1 == ma.cfg.Iterations {
		snap := ma.snapshot(ma.eng.ControllerState(), iter+1, epoch, clock, params)
		if err := ma.store.WriteSnapshot(snap); err != nil {
			return fmt.Errorf("iteration %d: %w", iter, err)
		}
	}
	return nil
}

// RunElastic is the one-call entry point: it starts an elastic master on
// addr, waits up to waitTimeout for the configured MinWorkers (default s+1)
// to join, then trains to completion. Workers dial addr with
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
func (ma *ElasticMaster) StartIter() int { return ma.startIter }

// Close shuts down workers, the listener and the reader goroutines. Safe to
// call multiple times and from any goroutine: it closes connections cold,
// because sending shutdown frames would race Run's own writes (Run performs
// the graceful variant itself when it returns).
func (ma *ElasticMaster) Close() {
	ma.stopRenew()
	ma.eng.Shutdown(false)
	ma.closeStore()
}
