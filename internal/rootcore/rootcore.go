// Package rootcore is what the training root, shard.Root, does around its
// collect: validation of the config, the bring-up sequence (acquire the
// lease, recover, reopen or create the store, guard and metrics, resume
// anchor), the lease renewal loop and its fault hook, the fencing verdict on
// run errors, the post-decode tail of an iteration (optimizer step,
// step/clock/loss bookkeeping, journal append and snapshot cadence) and the
// two ways a root ends: Release on success, Close — which never releases the
// lease — on everything else.
//
// The root keeps only what is its own: where its workers connect, how it
// collects one iteration's mean gradient (one roster engine per coding group,
// and a tree reduce over more than one) and how it fills the per-group part
// of a snapshot.
package rootcore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/metrics"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/roster"
	"github.com/hetgc/hetgc/internal/transport"
)

// DefaultSnapshotEvery is the snapshot cadence of a durable root that
// configured none.
const DefaultSnapshotEvery = 10

// DefaultHolder names the root in the lease token when HAConfig.Holder is
// empty. The holder name decides whether ha.Acquire lets a restarted root
// take back its own live lease: the same holder always may, a different one
// must wait for the lease to expire.
const DefaultHolder = "root"

// ErrBadConfig marks invalid root configurations; every validation failure
// wraps it.
var ErrBadConfig = errors.New("root: invalid config")

// Config is the lifecycle part of the root's configuration, filled from
// shard.Config.
type Config struct {
	// K, S, Model, Optimizer, InitialParams, Iterations, IterTimeout,
	// LossEvery and LossFn are the root config's fields of the same names.
	K, S          int
	Model         ml.Model
	Optimizer     ml.Optimizer
	InitialParams []float64
	Iterations    int
	IterTimeout   time.Duration
	LossEvery     int
	LossFn        func(params []float64) (float64, error)

	clustercfg.DurabilityConfig
	clustercfg.HAConfig
	clustercfg.TelemetryConfig
	Wire clustercfg.WireConfig
}

// Validate checks the config; every failure wraps ErrBadConfig.
func (c *Config) Validate() error {
	bad := func(format string, a ...any) error {
		return fmt.Errorf("%w: %s", ErrBadConfig, fmt.Sprintf(format, a...))
	}
	switch {
	case c.Model == nil || c.Optimizer == nil:
		return bad("model/optimizer required")
	case len(c.InitialParams) != c.Model.Dim():
		return bad("%d initial params, model wants %d", len(c.InitialParams), c.Model.Dim())
	case c.K <= 0 || c.S < 0:
		return bad("k=%d s=%d", c.K, c.S)
	case c.Iterations <= 0:
		return bad("iterations=%d", c.Iterations)
	case c.IterTimeout <= 0:
		return bad("iteration timeout required")
	case c.Resume && c.CheckpointDir == "":
		return bad("resume requires a checkpoint directory")
	case c.LeaseTTL > 0 && c.CheckpointDir == "":
		return bad("lease requires a checkpoint directory")
	}
	if _, err := grad.ParseCodec(c.Wire.Codec); err != nil {
		return bad("%v", err)
	}
	return nil
}

// Hooks are the two places a runtime's own state enters the shared
// lifecycle.
type Hooks struct {
	// Restore receives the recovered checkpoint on a resumed bring-up, after
	// the training state (parameters, optimizer, counters) has been restored
	// and before the journal is reopened: the runtime rebuilds its
	// membership and epoch fences from it.
	Restore func(*checkpoint.State) error
	// Groups completes a snapshot whose training state and Epoch the core
	// has filled: it sets Groups, each with its controller state.
	Groups func(*checkpoint.Snapshot)
}

// Progress is the training-loop bookkeeping every root reports.
type Progress struct {
	// Params are the final parameters.
	Params []float64
	// StartIter is the first iteration this run executed (non-zero when the
	// root was resumed from a checkpoint; IterTimes covers StartIter..).
	StartIter int
	// IterTimes are per-iteration wall times in seconds.
	IterTimes []float64
	// Summary summarises IterTimes.
	Summary metrics.Summary
	// Curve is (cumulative seconds, loss) when loss recording was enabled.
	Curve metrics.Series
	// RootGen is the lease generation the root held (0 without a lease).
	RootGen int
}

// Core is one open training root: lease, store and training state.
type Core struct {
	cfg   Config
	hooks Hooks
	codec grad.Codec

	// store is nil without a CheckpointDir; lease is nil and gen 0 without a
	// LeaseTTL.
	store *checkpoint.Store
	lease *ha.Lease
	gen   int
	// renewSuspended is the fault-injection hook: once set, the renewal loop
	// stops extending the lease, the TTL lapses, and a standby may take over
	// — this root becomes the zombie whose writes get fenced.
	renewSuspended atomic.Bool
	stopRenew      func()

	params    []float64 // live parameters (recovered on resume)
	startIter int
	step      int
	epoch     int // plan epoch of the last completed iteration (-1 for none)
	clock     float64
}

// Open brings the root up from a config that passed Validate. Its lease
// token publishes addr, the root's address for operators and standbys.
func Open(cfg Config, addr string, hooks Hooks) (*Core, error) {
	c, err := open(cfg, addr, hooks)
	if err != nil {
		return nil, err
	}
	cfg.Obs.BindWire(transport.Wire)
	cfg.Obs.BindWireCodecs(grad.CodecNames(), transport.WireCodec)
	return c, nil
}

// open is the bring-up, in the one safe order: acquire the lease (fencing
// the previous root) before reading what that root wrote, then recover,
// reopen, guard, and anchor the resumed state.
func open(cfg Config, addr string, hooks Hooks) (_ *Core, err error) {
	if cfg.CheckpointDir != "" && cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	c := &Core{
		cfg: cfg, hooks: hooks, epoch: -1, stopRenew: func() {},
		params: append([]float64(nil), cfg.InitialParams...),
	}
	c.codec, _ = grad.ParseCodec(cfg.Wire.Codec) // validated
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	if cfg.LeaseTTL > 0 {
		holder := cfg.Holder
		if holder == "" {
			holder = DefaultHolder
		}
		if c.lease, err = ha.Acquire(cfg.CheckpointDir, holder, addr, cfg.LeaseTTL); err != nil {
			return nil, err
		}
		c.gen = c.lease.Gen()
		cfg.Obs.OnLease(uint64(c.gen))
		// Renewal starts now, not in Train: worker admission between the two
		// can outlast a short TTL, and the lease must not lapse then.
		stop, done := make(chan struct{}), make(chan struct{})
		go c.renewLoop(stop, done)
		var once sync.Once
		c.stopRenew = func() { once.Do(func() { close(stop); <-done }) }
	}
	if cfg.CheckpointDir == "" {
		return c, nil
	}
	if !cfg.Resume {
		c.store, err = checkpoint.Create(cfg.CheckpointDir)
	} else if err = c.restore(); err == nil {
		c.store, err = checkpoint.Reopen(cfg.CheckpointDir)
	}
	if err != nil {
		return nil, err
	}
	c.store.SetMetrics(cfg.Obs)
	if c.lease != nil {
		// Every journal append and snapshot re-checks the lease: the moment a
		// newer generation holds it, this root's writes are refused — a
		// deposed root can never extend state the new holder already owns.
		c.store.SetGuard(c.lease.Check)
	}
	if cfg.Resume {
		// Anchor a fresh generation with the resumed state before any
		// journal append: crash-during-resume re-recovers this exact state,
		// and the old (possibly torn) journal is never extended.
		if err := c.store.WriteSnapshot(c.snapshot(c.startIter)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// restore reads the checkpoint directory and rebuilds the starting state from
// it: parameters, optimizer state and counters here, membership and epoch
// fences in the runtime's Restore hook.
func (c *Core) restore() error {
	state, err := checkpoint.Recover(c.cfg.CheckpointDir)
	if err != nil {
		return err
	}
	ts, err := state.RestoreTraining(c.cfg.Model.Dim(), c.cfg.Optimizer)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if ts.Params != nil {
		c.params = ts.Params
	}
	c.startIter, c.step, c.clock = ts.Iter, ts.Step, ts.Clock
	return c.hooks.Restore(state)
}

// renewLoop extends the lease on a cadence well inside the TTL. It stops on
// the stop signal, when SuspendLeaseRenewal has been called, or when renewal
// observes the fence — in the latter cases the lease lapses and a standby
// may take over; the store guard then fails the run typed at the next
// persist.
func (c *Core) renewLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	interval := c.lease.TTL() / 3
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
			if c.renewSuspended.Load() || c.lease.Renew() != nil {
				return
			}
			c.cfg.Obs.OnRenewal()
		}
	}
}

// SuspendLeaseRenewal stops extending the HA lease without stopping the
// root — the fault-injection hook that turns it into a zombie: it keeps
// training until a standby takes over, after which its journal writes and
// its members' uploads are rejected and the run fails wrapping
// ha.ErrFenced. No-op without a lease.
func (c *Core) SuspendLeaseRenewal() { c.renewSuspended.Store(true) }

// Codec returns the run's gradient codec.
func (c *Core) Codec() grad.Codec { return c.codec }

// StartIter returns the first iteration Train will run (non-zero after a
// checkpoint resume).
func (c *Core) StartIter() int { return c.startIter }

// Gen returns the lease generation this root holds (0 without a lease) —
// the fencing token stamped on every broadcast.
func (c *Core) Gen() int { return c.gen }

// Recorder returns group g's journal adapter for a roster engine (nil
// without a store).
func (c *Core) Recorder(g int) roster.Recorder {
	if c.store == nil {
		return nil
	}
	return c.store.GroupRecorder(g)
}

// Fenced maps a run failure to the fencing verdict when the real cause is a
// lost lease: an error observed while a newer generation holds the lease is
// reported wrapping ha.ErrFenced and naming the usurper — the remediation
// the operator needs (this root must exit; workers follow the new token).
func (c *Core) Fenced(err error) error {
	if c.lease == nil || err == nil || errors.Is(err, ha.ErrFenced) {
		return err
	}
	if verr := c.lease.Verify(); verr != nil && errors.Is(verr, ha.ErrFenced) {
		return fmt.Errorf("%w (run failed: %v)", verr, err)
	}
	return err
}

// Train runs the BSP loop from StartIter to the configured iteration count.
// For each iteration collect returns the mean gradient — the decoded sum
// already scaled to a mean and checked finite, in the caller's buffer,
// which the core only reads — and the plan epoch it decoded under (-1 where
// epochs are not root-level), timing its own phases on sc; the core steps the
// optimizer, keeps the books and persists. Any failure is passed through
// Fenced.
func (c *Core) Train(collect func(iter int, params []float64, sc *obs.IterScope) (grad.Gradient, int, error)) (*Progress, error) {
	cfg := &c.cfg
	prog := &Progress{Curve: metrics.Series{Name: "loss"}, StartIter: c.startIter, RootGen: c.gen}
	loss := func() {
		if l, err := cfg.LossFn(c.params); err == nil {
			prog.Curve.Append(c.clock, l)
		}
	}
	if cfg.LossFn != nil {
		loss()
	}
	for iter := c.startIter; iter < cfg.Iterations; iter++ {
		start := time.Now()
		// Epoch -1 until a plan says otherwise: a negative epoch leaves the
		// epoch gauge to the replan events.
		sc := cfg.Obs.StartIter(iter, -1)
		sc.SetTraceID(obs.TraceID(uint64(c.gen), -1, iter))
		g, epoch, err := collect(iter, c.params, sc)
		if err != nil {
			return nil, c.Fenced(err)
		}
		sc.Phase(obs.PhaseStep)
		if err := cfg.Optimizer.Step(c.params, g); err != nil {
			return nil, c.Fenced(fmt.Errorf("iteration %d step: %w", iter, err))
		}
		c.step++
		c.epoch = epoch
		elapsed := time.Since(start).Seconds()
		c.clock += elapsed
		prog.IterTimes = append(prog.IterTimes, elapsed)
		if cfg.LossFn != nil && cfg.LossEvery > 0 && (iter+1)%cfg.LossEvery == 0 {
			loss()
		}
		sc.Phase(obs.PhasePersist)
		if err := c.persist(iter); err != nil {
			return nil, c.Fenced(err)
		}
		sc.End()
	}
	prog.Params = c.params
	prog.Summary = metrics.Summarize(prog.IterTimes)
	return prog, nil
}

// snapshot assembles the durable state at an iteration boundary: nextIter is
// the first iteration NOT folded into the parameters.
//
// The snapshot aliases the live parameters and optimizer vectors. No copy is
// needed: only the optimizer Step writes them, on this goroutine, and a
// snapshot is written at bring-up or in persist, between two Steps and after
// the iteration's broadcast writes have returned; WriteSnapshot retains
// nothing.
func (c *Core) snapshot(nextIter int) *checkpoint.Snapshot {
	snap := &checkpoint.Snapshot{
		Iter: nextIter, Epoch: c.epoch, Step: c.step, Clock: c.clock,
		Params: c.params,
	}
	if so, ok := c.cfg.Optimizer.(ml.StatefulOptimizer); ok {
		snap.OptVecs, snap.OptStep = so.OptimizerState()
	}
	c.hooks.Groups(snap)
	return snap
}

// persist journals one completed iteration and snapshots the model on the
// configured cadence. No-op without a checkpoint store. A write failure —
// direct or swallowed earlier by a roster recorder — fails the run: a
// training job that silently stopped being durable is worse than a dead one.
func (c *Core) persist(iter int) error {
	if c.store == nil {
		return nil
	}
	if err := c.store.Err(); err != nil {
		return fmt.Errorf("iteration %d: journal writes failing: %w", iter, err)
	}
	// Iteration records carry an unsigned epoch: 0 where epochs are
	// group-local.
	if err := c.store.AppendIter(iter, max(c.epoch, 0), c.step); err != nil {
		return fmt.Errorf("iteration %d: %w", iter, err)
	}
	if (iter+1)%c.cfg.SnapshotEvery == 0 || iter+1 == c.cfg.Iterations {
		if err := c.store.WriteSnapshot(c.snapshot(iter + 1)); err != nil {
			return fmt.Errorf("iteration %d: %w", iter, err)
		}
	}
	return nil
}

// Release ends a completed run: it stops renewing and expires the lease in
// place, so a standby is not left waiting a full TTL for a root that exited
// cleanly. The generation stays in the file for monotonicity.
func (c *Core) Release() {
	if c.lease != nil {
		c.stopRenew()
		_ = c.lease.Release()
	}
}

// Close stops the renewal loop and closes the store. It never releases the
// lease — a closed-but-unreleased lease is a crash as far as a standby is
// concerned, which is exactly the semantics tests and failover drills need.
// Safe to call multiple times.
func (c *Core) Close() {
	c.stopRenew()
	if c.store != nil {
		_ = c.store.Close()
	}
}
