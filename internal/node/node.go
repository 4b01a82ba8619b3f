package node

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/transport"
)

// ErrBadNode marks an unusable node configuration.
var ErrBadNode = errors.New("node: invalid config")

// Workload is the training job a cluster runs: the model, its optimizer,
// and (on data-holding nodes) the dataset with its k partitions. The root
// holds Data/Parts and serves shards over the data plane; workers need only
// the Model.
type Workload struct {
	Model     ml.Model
	Optimizer ml.Optimizer
	Data      *ml.Dataset
	Parts     []*ml.Dataset
}

// DefaultWorkload builds the synthetic softmax workload the gcroot/gcworker
// binaries (and the process e2e) share: a seed-derived Gaussian mixture split
// into k partitions. The same (seed, k) always yields bit-identical data on
// every machine — which is what lets a worker that only knows the seed train
// against a root that holds the data.
func DefaultWorkload(seed int64, k int) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	data, err := ml.GaussianMixture(k*30, 8, 3, 3, rng)
	if err != nil {
		return nil, err
	}
	parts, err := data.Split(k)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Model:     &ml.Softmax{InputDim: 8, NumClasses: 3},
		Optimizer: &ml.SGD{LR: 0.5, Momentum: 0.5},
		Data:      data,
		Parts:     parts,
	}, nil
}

// ClusterConfig is the single declarative configuration a cluster node runs
// from: discovery (Roster), the training job (K/S/Iterations/Seed +
// Workload), and the composable durability/HA/telemetry blocks shared with
// every other run config in the repo.
type ClusterConfig struct {
	// Roster is the cluster's static discovery plan (see LoadRoster).
	Roster Roster
	// Listen is the address THIS node binds: the roster's root entry on the
	// root, the node's own standby entry on a standby. Empty defaults to
	// Roster.Root.
	Listen string
	// K is the partition count, S the straggler budget.
	K, S int
	// Scheme is the strategy family to plan, any of the five (default
	// core.HeterAware; see elastic.Config.Scheme). A fixed-shape scheme
	// needs Roster.Workers ≥ K.
	Scheme core.Kind
	// Iterations is the training length.
	Iterations int
	// Seed drives workload synthesis and strategy construction.
	Seed int64
	// IterTimeout bounds one BSP iteration (default 30s).
	IterTimeout time.Duration
	// PinEstimates freezes the planner on the seeded initial strategy (no
	// drift replans, priors never warm). With S = 0 this makes a run's
	// parameter trajectory bit-deterministic — including across a root
	// failover — which is what the process e2e asserts.
	PinEstimates bool
	// Workload is the training job; nil selects DefaultWorkload(Seed, K).
	Workload *Workload

	// Durability, HA and telemetry (see internal/clustercfg and the matching
	// blocks on shard.Config). A cluster root requires CheckpointDir and
	// LeaseTTL: failover without a shared durable directory is not possible.
	clustercfg.DurabilityConfig
	clustercfg.HAConfig
	clustercfg.TelemetryConfig
	// Wire selects the run's gradient codec, named in every worker's hello
	// ack (see clustercfg.WireConfig).
	Wire clustercfg.WireConfig
}

// withDefaults validates and fills the config.
func (c ClusterConfig) withDefaults() (ClusterConfig, error) {
	if err := c.Roster.Validate(); err != nil {
		return c, err
	}
	if c.K <= 0 || c.S < 0 || c.Iterations <= 0 {
		return c, fmt.Errorf("%w: k=%d s=%d iterations=%d", ErrBadNode, c.K, c.S, c.Iterations)
	}
	if c.Listen == "" {
		c.Listen = c.Roster.Root
	}
	if c.IterTimeout <= 0 {
		c.IterTimeout = 30 * time.Second
	}
	if c.Workload == nil {
		w, err := DefaultWorkload(c.Seed, c.K)
		if err != nil {
			return c, fmt.Errorf("%w: workload: %v", ErrBadNode, err)
		}
		c.Workload = w
	}
	return c, nil
}

// elasticConfig assembles the runtime config for a (possibly resuming) root.
func (c ClusterConfig) elasticConfig(resume bool) shard.Config {
	w := c.Workload
	ec := shard.Config{
		K: c.K, S: c.S, Scheme: c.Scheme,
		Model:           w.Model,
		Optimizer:       w.Optimizer,
		InitialParams:   w.Model.InitParams(nil),
		Iterations:      c.Iterations,
		SampleCount:     w.Data.N(),
		IterTimeout:     c.IterTimeout,
		MinWorkers:      c.Roster.Workers,
		Seed:            c.Seed,
		PartitionSource: func(p int) (*ml.Dataset, error) { return w.Parts[p], nil },
	}
	if c.PinEstimates {
		// Estimates never warm past the uniform prior and drift can never
		// trip: every plan — including a promoted root's takeover plan — is
		// the seeded initial strategy.
		ec.MinObservations = 1 << 30
		ec.DriftThreshold = 1e18
	}
	ec.DurabilityConfig = c.DurabilityConfig
	ec.DurabilityConfig.Resume = resume
	ec.HAConfig = c.HAConfig
	ec.TelemetryConfig = c.TelemetryConfig
	ec.Wire = c.Wire
	return ec
}

// ElasticConfig validates the config and assembles the elastic runtime
// configuration it selects — the same assembly StartRoot uses, exported so
// in-process runners (gctrain) route their flag surface through ClusterConfig
// instead of duplicating the wiring. Job-reporting extras (LossFn,
// LossEvery) may be patched onto the returned value.
func (c ClusterConfig) ElasticConfig(resume bool) (shard.Config, error) {
	c, err := c.withDefaults()
	if err != nil {
		return shard.Config{}, err
	}
	return c.elasticConfig(resume), nil
}

// Root is a standalone training root: a one-group shard.Root listening on the
// roster's address, serving training-data shards over its data plane,
// checkpointing under the HA lease.
type Root struct {
	cfg    ClusterConfig
	master *shard.Root
}

// StartRoot builds the root and starts accepting workers on cfg.Listen.
// resume selects checkpoint recovery (a restarted or promoted root).
func StartRoot(cfg ClusterConfig, resume bool) (*Root, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointDir == "" || cfg.LeaseTTL <= 0 {
		return nil, fmt.Errorf("%w: a cluster root requires CheckpointDir and LeaseTTL (failover needs a durable directory and a lease)", ErrBadNode)
	}
	master, err := shard.NewRoot(cfg.elasticConfig(resume), cfg.Listen)
	if err != nil {
		return nil, err
	}
	return &Root{cfg: cfg, master: master}, nil
}

// Addr returns the address workers dial.
func (r *Root) Addr() string { return r.master.Addr() }

// StartIter returns the first iteration this root will run (non-zero after
// resume).
func (r *Root) StartIter() int { return r.master.StartIter() }

// Run waits for the roster's worker quorum, trains to completion and
// returns the result.
func (r *Root) Run(waitTimeout time.Duration) (*shard.Result, error) {
	if err := r.master.WaitForWorkers(waitTimeout); err != nil {
		r.master.Close()
		return nil, err
	}
	return r.master.Run()
}

// Close tears the root down (cold).
func (r *Root) Close() { r.master.Close() }

// RunStandby tails the checkpoint directory until the active root's lease
// lapses, then promotes: it constructs a resumed root on cfg.Listen (the
// standby's own roster address) and trains the remaining iterations. A nil
// promotion (stop closed) returns (nil, nil).
func RunStandby(cfg ClusterConfig, stop <-chan struct{}) (*shard.Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("%w: a standby requires CheckpointDir (it tails the root's durable state)", ErrBadNode)
	}
	sb := ha.NewStandby(ha.StandbyConfig{
		DurabilityConfig: clustercfg.DurabilityConfig{CheckpointDir: cfg.CheckpointDir},
	})
	prom, err := sb.Run(stop)
	if err != nil {
		return nil, err
	}
	if prom == nil {
		return nil, nil
	}
	// Promotion is the fencing act: acquiring the next generation is what
	// deposes the old root, so record both sides — the failover (the
	// promoted master's own Acquire claims Gen+1) and a fence event naming
	// the generation whose writes are dead from here on. The fleet
	// aggregator's merged timeline keys on this pair.
	last := -1
	if prom.State != nil {
		last = prom.State.LastIter
	}
	cfg.Obs.OnPromotion(uint64(prom.Deposed.Gen+1), last)
	cfg.Obs.Event(obs.Event{Kind: obs.EvFence, Iter: last,
		Detail: fmt.Sprintf("deposed root generation %d (%q)", prom.Deposed.Gen, prom.Deposed.Holder)})
	// The deposed root may never have written a checkpoint; a promotion over
	// an empty directory still resumes — Recover below the master handles the
	// fresh-vs-resumed distinction.
	resume := prom.State != nil
	root, err := StartRoot(cfg, resume)
	if err != nil {
		return nil, err
	}
	return root.Run(cfg.IterTimeout)
}

// WorkerConfig configures a standalone worker process.
type WorkerConfig struct {
	// Roster is the shared discovery plan; the worker dials the root first,
	// then each standby, cycling with backoff until one answers.
	Roster Roster
	// K and Seed must match the cluster's (they derive the workload).
	K    int
	Seed int64
	// Workload overrides the seed-derived default. Only Model is required on
	// a worker — with a nil PartitionData below, shards come over the wire.
	Workload *Workload
	// PartitionData, when non-nil, serves shards locally instead of fetching
	// them from the root's data plane.
	PartitionData func(p int) (*ml.Dataset, error)
	// CheckpointDir, when set AND visible from this machine (shared
	// storage), lets the worker re-resolve the live root from the lease
	// token — the authoritative address after a failover. Without it the
	// worker falls back to cycling the roster addresses.
	CheckpointDir string
	// Reconnect bounds each dial attempt sequence (defaults: 1 attempt per
	// address per cycle). The cycle itself repeats until the run ends.
	Reconnect runtime.ReconnectPolicy
	// DialTimeout bounds one dial (default 2s).
	DialTimeout time.Duration
	// Delay injects artificial per-iteration compute delay (fault/slowness
	// simulation; also what keeps the e2e's kill window open).
	Delay func(iter int) time.Duration
	// MaxCycles bounds full passes over the address list (0 = unbounded).
	MaxCycles int
}

// RunWorker runs the worker process: it validates cfg, derives the default
// workload when none is given, and runs runtime.Follow over resolveOrder —
// resolve the root, dial, train until the connection drops, re-resolve and
// rejoin under the same member ID. It returns nil on a clean shutdown (the
// root finished training), or the last error once MaxCycles passes over the
// address list all failed.
func RunWorker(cfg WorkerConfig, stop <-chan struct{}) error {
	if err := cfg.Roster.Validate(); err != nil {
		return err
	}
	if cfg.Workload == nil {
		if cfg.K <= 0 {
			return fmt.Errorf("%w: worker needs K (and Seed) to derive its workload", ErrBadNode)
		}
		w, err := DefaultWorkload(cfg.Seed, cfg.K)
		if err != nil {
			return fmt.Errorf("%w: workload: %v", ErrBadNode, err)
		}
		cfg.Workload = w
	}
	dialTimeout := cfg.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	return runtime.Follow(runtime.ElasticWorkerConfig{
		Model:         cfg.Workload.Model,
		PartitionData: cfg.PartitionData,
		Delay:         cfg.Delay,
		DialTimeout:   dialTimeout,
		Reconnect:     cfg.Reconnect,
	}, cfg.resolveOrder, cfg.MaxCycles, nil, stop)
}

// resolveOrder returns the addresses to try this cycle: the lease token's
// address first when the checkpoint directory is readable from here (it is
// authoritative — it always names the live generation's root), then the
// roster's static order.
func (cfg WorkerConfig) resolveOrder() []string {
	addrs := cfg.Roster.Addrs()
	if cfg.CheckpointDir == "" {
		return addrs
	}
	tok, err := ha.ReadToken(cfg.CheckpointDir)
	if err != nil || tok.Addr == "" {
		return addrs
	}
	out := []string{tok.Addr}
	for _, a := range addrs {
		if a != tok.Addr {
			out = append(out, a)
		}
	}
	return out
}

// ParamsDigest returns a short hex digest of a parameter vector — what the
// gcroot binary prints on completion so an operator (or the process e2e) can
// compare two runs for bit-identity without shipping the vectors around.
func ParamsDigest(params []float64) string {
	var buf []byte
	buf = transport.AppendFloat64s(buf, params)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}
