// Package hetgc is a Go implementation of heterogeneity-aware gradient
// coding for straggler tolerance (Wang et al., ICDCS 2019). It provides:
//
//   - Coding strategies: the paper's heter-aware (Alg. 1) and group-based
//     (Alg. 2/3) schemes, plus the naive, cyclic and fractional-repetition
//     baselines of Tandon et al. — see NewHeterAware, NewGroupBased,
//     NewCyclic, NewNaive, NewFractionalRepetition.
//   - Encoding/decoding of gradient vectors (EncodeGradient,
//     CombineGradients) and the data-partition allocation machinery.
//   - A discrete-event cluster simulator reproducing the paper's evaluation:
//     one iteration loop (SimulateElastic) that runs every scheme through the
//     live runtimes' control plane, flat or in coding groups, timing-only or
//     with real gradients, with the Table II clusters (ClusterA…ClusterD),
//     straggler injectors and the SSP baseline (RunSSP).
//   - A real TCP master/worker runtime that hosts every scheme and re-codes
//     on drift and churn (RunElastic, NewElasticMaster, DialElasticWorker),
//     and a hierarchical group-sharded runtime that scales the scheme to
//     hundreds of workers (RunSharded).
//   - Experiment runners regenerating every figure and table of the paper
//     (the Fig2/Fig3/Fig4/Fig5/Table2 family).
//
// The quickstart in examples/quickstart shows the core loop: build a
// strategy from worker throughputs, have each worker send a coded gradient,
// and decode the exact aggregated gradient from any m−s workers.
package hetgc

import (
	"math/rand"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/cluster"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/estimate"
	"github.com/hetgc/hetgc/internal/experiments"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/metrics"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/node"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/partition"
	"github.com/hetgc/hetgc/internal/planner"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/sim"
	"github.com/hetgc/hetgc/internal/straggler"
)

// Core coding types.
type (
	// Strategy is a gradient coding strategy: allocation + coding matrix +
	// decoder. See the Kind constants for the five families.
	Strategy = core.Strategy
	// Kind identifies a strategy family.
	Kind = core.Kind
	// Allocation maps data partitions to workers.
	Allocation = partition.Allocation
	// Gradient is a flat gradient vector.
	Gradient = grad.Gradient
)

// Strategy kinds.
const (
	Naive                = core.Naive
	Cyclic               = core.Cyclic
	FractionalRepetition = core.FractionalRepetition
	HeterAware           = core.HeterAware
	GroupBased           = core.GroupBased
)

// Strategy construction errors.
var (
	// ErrUndecodable is returned when an alive set cannot decode.
	ErrUndecodable = core.ErrUndecodable
	// ErrConstruction is returned when code construction fails.
	ErrConstruction = core.ErrConstruction
)

// NewHeterAware builds the paper's heterogeneity-aware strategy (Alg. 1):
// k data partitions replicated s+1 times, loads proportional to the worker
// throughputs, robust to any s stragglers and makespan-optimal (Thm. 4/5).
func NewHeterAware(throughputs []float64, k, s int, rng *rand.Rand) (*Strategy, error) {
	return core.NewHeterAware(throughputs, k, s, rng)
}

// NewGroupBased builds the paper's group-based strategy (Alg. 2/3), which
// additionally decodes by plain summation from any fully-finished worker
// group — faster in practice when throughput estimates are imperfect.
func NewGroupBased(throughputs []float64, k, s int, rng *rand.Rand) (*Strategy, error) {
	return core.NewGroupBased(throughputs, k, s, rng)
}

// NewCyclic builds Tandon et al.'s homogeneous cyclic gradient code.
func NewCyclic(m, s int, rng *rand.Rand) (*Strategy, error) {
	return core.NewCyclic(m, s, rng)
}

// NewNaive builds the uncoded baseline requiring every worker.
func NewNaive(m int) (*Strategy, error) { return core.NewNaive(m) }

// NewFractionalRepetition builds Tandon et al.'s fractional repetition code
// (requires (s+1) | m).
func NewFractionalRepetition(m, s int) (*Strategy, error) {
	return core.NewFractionalRepetition(m, s)
}

// VerifyRobustness checks that a strategy decodes under every straggler
// pattern of size s (exhaustively for small clusters, sampled otherwise).
func VerifyRobustness(st *Strategy, samples int, rng *rand.Rand) error {
	return core.VerifyRobustness(st, samples, rng)
}

// AliveFromStragglers builds an alive mask with the given stragglers dead.
func AliveFromStragglers(m int, stragglers []int) []bool {
	return core.AliveFromStragglers(m, stragglers)
}

// EncodeGradient forms a worker's coded gradient Σ coeff_j·partial_j.
func EncodeGradient(coeffs []float64, partials []Gradient) (Gradient, error) {
	return grad.Encode(coeffs, partials)
}

// CombineGradients recombines coded gradients with decoding coefficients.
func CombineGradients(coeffs []float64, coded []Gradient, dim int) (Gradient, error) {
	return grad.Combine(coeffs, coded, dim)
}

// SumGradients returns the plain sum of gradients.
func SumGradients(gs []Gradient) (Gradient, error) { return grad.Sum(gs) }

// Allocation-free kernel variants: each overwrites dst (whose length fixes
// the gradient dimension) instead of allocating. Pair them with
// GetGradientBuffer/PutGradientBuffer for zero-alloc steady-state loops.

// EncodeGradientInto forms a worker's coded gradient in place.
func EncodeGradientInto(dst Gradient, coeffs []float64, partials []Gradient) error {
	return grad.EncodeInto(dst, coeffs, partials)
}

// CombineGradientsInto recombines coded gradients in place.
func CombineGradientsInto(dst Gradient, coeffs []float64, coded []Gradient) error {
	return grad.CombineInto(dst, coeffs, coded)
}

// SumGradientsInto sums gradients in place.
func SumGradientsInto(dst Gradient, gs []Gradient) error { return grad.SumInto(dst, gs) }

// GetGradientBuffer returns a length-dim gradient from the shared buffer
// pool; its contents are unspecified (the *Into kernels overwrite fully).
func GetGradientBuffer(dim int) Gradient { return grad.GetBuffer(dim) }

// PutGradientBuffer recycles a gradient obtained from GetGradientBuffer. The
// caller must not use it afterwards.
func PutGradientBuffer(g Gradient) { grad.PutBuffer(g) }

// Cluster modelling.
type (
	// Cluster is a heterogeneous worker fleet.
	Cluster = cluster.Cluster
	// ClusterWorker describes one machine.
	ClusterWorker = cluster.Worker
)

// Table II clusters of the paper.
var (
	ClusterA = cluster.ClusterA
	ClusterB = cluster.ClusterB
	ClusterC = cluster.ClusterC
	ClusterD = cluster.ClusterD
)

// NewCluster builds a cluster from a vCPU histogram.
func NewCluster(name string, vcpuCounts map[int]int, baseThroughput float64) (*Cluster, error) {
	return cluster.FromHistogram(name, vcpuCounts, baseThroughput)
}

// Straggler injectors for simulations.
type (
	// StragglerInjector produces per-iteration extra delays.
	StragglerInjector = straggler.Injector
	// FixedStragglers delays a fixed number of random workers.
	FixedStragglers = straggler.Fixed
	// PinnedStragglers delays a fixed worker set.
	PinnedStragglers = straggler.Pinned
	// TransientStragglers models probabilistic interference.
	TransientStragglers = straggler.Transient
)

// Stale-synchronous baseline of Fig. 4.
type (
	// SSPConfig parameterises the stale-synchronous baseline.
	SSPConfig = sim.SSPConfig
	// SSPResult is the SSP outcome.
	SSPResult = sim.SSPResult
)

// RunSSP runs the SSP baseline simulation (Fig. 4).
func RunSSP(cfg SSPConfig) (*SSPResult, error) { return sim.RunSSP(cfg) }

// ML substrate.
type (
	// Model is a differentiable model over flat parameters.
	Model = ml.Model
	// Dataset holds features and labels.
	Dataset = ml.Dataset
	// LinearRegression, LogisticRegression, Softmax and MLP are the built-in
	// models.
	LinearRegression   = ml.LinearRegression
	LogisticRegression = ml.LogisticRegression
	Softmax            = ml.Softmax
	MLP                = ml.MLP
	// SGD and Adam are the built-in optimizers.
	SGD  = ml.SGD
	Adam = ml.Adam
	// Optimizer updates parameters from gradients.
	Optimizer = ml.Optimizer
)

// GaussianMixture generates a synthetic classification dataset.
func GaussianMixture(n, dim, classes int, sep float64, rng *rand.Rand) (*Dataset, error) {
	return ml.GaussianMixture(n, dim, classes, sep, rng)
}

// LinearData generates a synthetic regression dataset.
func LinearData(n, dim int, noise float64, rng *rand.Rand) (*Dataset, error) {
	return ml.LinearData(n, dim, noise, rng)
}

// MeanLoss evaluates a model's mean loss on a dataset.
func MeanLoss(m Model, params []float64, d *Dataset) (float64, error) {
	return ml.MeanLoss(m, params, d)
}

// Durable training state: the checkpoint + journal subsystem behind
// ElasticConfig.CheckpointDir / ShardedConfig.CheckpointDir. A master with a
// checkpoint directory journals every migration, iteration and membership
// event and snapshots the model atomically; Resume reconstructs it after a
// crash with pre-crash uploads fenced by epoch.
type (
	// CheckpointState is the recovered view of a checkpoint directory.
	CheckpointState = checkpoint.State
	// CheckpointSnapshot is one durable model snapshot.
	CheckpointSnapshot = checkpoint.Snapshot
)

// Checkpoint recovery errors.
var (
	// ErrNoCheckpoint is returned when a directory holds no checkpoint state.
	ErrNoCheckpoint = checkpoint.ErrNoCheckpoint
	// ErrCheckpointCorrupt is returned when no snapshot in the directory
	// passes its integrity checks.
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
	// ErrCheckpointExists is returned when a fresh (non-resume) run names a
	// directory that already holds checkpoint state.
	ErrCheckpointExists = checkpoint.ErrExists
)

// RecoverCheckpoint reads a checkpoint directory without opening it for
// writing — inspection and tooling.
func RecoverCheckpoint(dir string) (*CheckpointState, error) { return checkpoint.Recover(dir) }

// Elastic control plane: live telemetry, online re-planning and
// epoch-versioned mid-training strategy migration.
type (
	// ElasticMaster drives elastic BSP training over workers that may join,
	// die and rejoin mid-run, migrating the coding strategy on drift/churn.
	ElasticMaster = runtime.ElasticMaster
	// ElasticConfig configures an elastic master (coding parameters plus the
	// control plane's drift/cooldown knobs).
	ElasticConfig = runtime.ElasticConfig
	// ElasticResult summarises an elastic run: iteration times, per-iteration
	// epochs, migration history, stale-epoch rejections.
	ElasticResult = runtime.ElasticResult
	// ElasticWorker is a migration-aware, telemetry-reporting worker.
	ElasticWorker = runtime.ElasticWorker
	// ElasticWorkerConfig configures an elastic worker (set ResumeID to
	// reclaim a member slot after a reconnect).
	ElasticWorkerConfig = runtime.ElasticWorkerConfig
	// ReplanEvent records one migration (iteration, epoch, trigger).
	ReplanEvent = elastic.ReplanEvent
	// ElasticController is the transport-agnostic control plane shared by
	// the live runtime and the churn simulator.
	ElasticController = elastic.Controller
	// ElasticControllerConfig parameterises an ElasticController.
	ElasticControllerConfig = elastic.Config
)

// NewElasticMaster starts an elastic master accepting workers on addr.
func NewElasticMaster(cfg ElasticConfig, addr string) (*ElasticMaster, error) {
	return runtime.NewElasticMaster(cfg, addr)
}

// DialElasticWorker connects an elastic worker to a master; it receives its
// assignments via epoch-versioned reassignment messages.
func DialElasticWorker(addr string, cfg ElasticWorkerConfig) (*ElasticWorker, error) {
	return runtime.DialElasticWorker(addr, cfg)
}

// RunElastic starts an elastic master on addr, waits for the worker quorum
// and trains to completion.
func RunElastic(cfg ElasticConfig, addr string, waitTimeout time.Duration) (*ElasticResult, error) {
	return runtime.RunElastic(cfg, addr, waitTimeout)
}

// High availability: a root with ElasticConfig.LeaseTTL (or
// ShardedConfig.LeaseTTL) set holds a monotonic lease over its checkpoint
// directory. Every broadcast carries the lease generation, every upload
// echoes it, and every journal write verifies it — so when a standby takes
// over the directory at the next generation, the deposed root's writes are
// rejected typed (ErrFenced) instead of corrupting the successor's run.
type (
	// HALease is an acquired root lease: a monotonic generation over a
	// checkpoint directory, renewed while the holder is healthy.
	HALease = ha.Lease
	// HAToken is the durable claim a lease writes: generation, holder,
	// address, expiry.
	HAToken = ha.Token
	// Standby tails a root's checkpoint directory and reports when the
	// lease lapses — the warm half of a failover pair.
	Standby = ha.Standby
	// StandbyConfig parameterises a Standby (directory, poll cadence,
	// post-expiry grace).
	StandbyConfig = ha.StandbyConfig
	// Promotion is what a standby hands over when the lease lapses: the
	// deposed token and the freshest durable state it tailed.
	Promotion = ha.Promotion
)

// High-availability errors.
var (
	// ErrFenced marks a write or run rejected because a higher lease
	// generation has claimed the root's checkpoint directory.
	ErrFenced = ha.ErrFenced
	// ErrLeaseHeld is returned by AcquireLease while another holder's
	// unexpired claim stands.
	ErrLeaseHeld = ha.ErrLeaseHeld
)

// AcquireLease claims dir's root lease for holder at the next generation,
// advertising addr to group masters and standbys. It fails typed
// (ErrLeaseHeld) while another holder's claim is unexpired.
func AcquireLease(dir, holder, addr string, ttl time.Duration) (*HALease, error) {
	return ha.Acquire(dir, holder, addr, ttl)
}

// NewStandby builds a warm standby over a root's checkpoint directory; its
// Run blocks until the lease lapses and the standby should take over.
func NewStandby(cfg StandbyConfig) *Standby { return ha.NewStandby(cfg) }

// ReadLeaseToken reads dir's current lease token without claiming anything
// — discovery and monitoring.
func ReadLeaseToken(dir string) (*HAToken, error) { return ha.ReadToken(dir) }

// NewElasticController builds the control plane directly (for custom
// runtimes or simulators).
func NewElasticController(cfg ElasticControllerConfig, rng *rand.Rand) (*ElasticController, error) {
	return elastic.NewController(cfg, rng)
}

// Deterministic elastic churn simulation.
type (
	// ElasticSimConfig parameterises a socket-free elastic control-loop
	// simulation over a seeded churn schedule.
	ElasticSimConfig = sim.ElasticSimConfig
	// ElasticSimResult aggregates an elastic simulation run.
	ElasticSimResult = sim.ElasticSimResult
	// ChurnEvent is one scheduled speed step, kill, join or rejoin.
	ChurnEvent = sim.ChurnEvent
	// ChurnKind enumerates churn event kinds.
	ChurnKind = sim.ChurnKind
	// GroupReplanEvent is one group-local migration of a simulation.
	GroupReplanEvent = sim.GroupReplanEvent
)

// Churn event kinds.
const (
	ChurnSpeedStep = sim.SpeedStep
	ChurnKill      = sim.Kill
	ChurnJoin      = sim.Join
	ChurnRejoin    = sim.Rejoin
)

// SimulateElastic runs the deterministic elastic co-simulation — the same
// control plane as the live runtimes, bit-identical for a fixed seed. With no
// churn and DriftThreshold +Inf it is the timing simulation of Figs. 2, 3 and
// 5; with a Model, Data and Optimizer it is Fig. 4's coded training. A
// GroupSize below the fleet size splits it into the sharded hierarchy's
// coding groups, each with its own control plane; a group covering every
// worker is the flat single-master runtime, which makes flat-vs-sharded
// comparisons exact.
func SimulateElastic(cfg ElasticSimConfig) (*ElasticSimResult, error) {
	return sim.RunElastic(cfg)
}

// Hierarchical group-sharded runtime: the worker fleet is partitioned into
// independently-coded groups, each with its own group master (local decode,
// group-local elastic control plane, per-group epochs) and its own slice of
// the global partitions; the root master hosts every group master in its own
// process and reduces their decoded sums along a configurable fan-in tree.
type (
	// ShardedConfig configures a sharded training run.
	ShardedConfig = shard.Config
	// ShardedResult summarises a sharded run (per-group stats included).
	ShardedResult = shard.Result
	// ShardedRoot is the hierarchy's root master; workers dial the group
	// addresses it exposes (GroupAddrs/Plan).
	ShardedRoot = shard.Root
	// ShardGroupStats is one group's run summary.
	ShardGroupStats = shard.GroupStats
	// ShardPlan is a sharded deployment plan (groups, partition ownership,
	// reduction tree).
	ShardPlan = shard.Plan
	// ReductionTree is the cross-group aggregation topology.
	ReductionTree = shard.Tree
)

// NewShardedRoot builds the shard plan, brings the root up (its lease token
// publishes addr) and starts one in-process group master per coding group,
// each listening for its workers on addr's host at its own port.
func NewShardedRoot(cfg ShardedConfig, addr string) (*ShardedRoot, error) {
	return shard.NewRoot(cfg, addr)
}

// RunSharded is the one-call sharded entry point: it builds the hierarchy on
// addr, invokes onListen (dial workers at root.GroupAddrs() there), waits
// for every group's worker quorum and trains to completion.
func RunSharded(cfg ShardedConfig, addr string, waitTimeout time.Duration, onListen func(*ShardedRoot)) (*ShardedResult, error) {
	return shard.RunSharded(cfg, addr, waitTimeout, onListen)
}

// NewReductionTree builds a fan-in-ary aggregation tree over the given leaf
// count.
func NewReductionTree(leaves, fanIn int) *ReductionTree { return shard.NewTree(leaves, fanIn) }

// Throughput estimation.
type (
	// ThroughputMeter is a count-gated EWMA with a prior — the elastic
	// control plane's per-worker estimator.
	ThroughputMeter = estimate.Meter
)

// NewThroughputMeter builds a count-gated EWMA throughput estimator with
// the given smoothing factor and prior rate guess.
func NewThroughputMeter(alpha, prior float64) *ThroughputMeter {
	return estimate.NewMeter(alpha, prior)
}

// BuildStrategy builds a strategy of any scheme over m = len(estimates)
// workers from throughput estimates: the one step from estimates to a code,
// shared by the experiments and the elastic control plane.
func BuildStrategy(kind Kind, estimates []float64, k, s int, rng *rand.Rand) (*Strategy, error) {
	return planner.BuildStrategy(kind, estimates, k, s, rng)
}

// PredictedImbalance predicts a strategy's iteration time relative to the
// optimal makespan under throughput estimates (1.0 = balanced) — the drift
// signal of the online replanning loop.
func PredictedImbalance(st *Strategy, estimates []float64) float64 {
	return planner.PredictedImbalance(st, estimates)
}

// MisestimateThroughputs perturbs true speeds with relative noise eps.
func MisestimateThroughputs(truth []float64, eps float64, rng *rand.Rand) []float64 {
	return estimate.Misestimate(truth, eps, rng)
}

// Experiments (paper figures and tables).
type (
	// DelaySweepConfig parameterises Fig. 2.
	DelaySweepConfig = experiments.DelaySweepConfig
	// DelayRow is one Fig. 2 sweep row.
	DelayRow = experiments.DelayRow
	// ClusterSweepConfig parameterises Figs. 3 and 5.
	ClusterSweepConfig = experiments.ClusterSweepConfig
	// ClusterRow is one Fig. 3/5 row.
	ClusterRow = experiments.ClusterRow
	// LossCurveConfig parameterises Fig. 4.
	LossCurveConfig = experiments.LossCurveConfig
	// LossCurves is the Fig. 4 result.
	LossCurves = experiments.LossCurves
	// MisestimationConfig parameterises the estimation ablation.
	MisestimationConfig = experiments.MisestimationConfig
	// MisestimationRow is one estimation-ablation row.
	MisestimationRow = experiments.MisestimationRow
	// ReplicationSweepConfig parameterises the s ablation.
	ReplicationSweepConfig = experiments.ReplicationSweepConfig
	// ReplicationRow is one s-ablation row.
	ReplicationRow = experiments.ReplicationRow
	// MetricsTable is a renderable result table.
	MetricsTable = metrics.Table
	// LossSeries is a named (time, loss) curve.
	LossSeries = metrics.Series
)

// Experiment runners (see DESIGN.md experiment index).
var (
	RunFig2Sweep        = experiments.RunDelaySweep
	RunFig3Clusters     = experiments.RunClusterSweep
	RunFig4LossCurves   = experiments.RunLossCurves
	RunMisestimation    = experiments.RunMisestimation
	RunReplicationSweep = experiments.RunReplicationSweep
	Table2              = experiments.Table2
	DelayTable          = experiments.DelayTable
	ClusterTable        = experiments.ClusterTable
	UsageTable          = experiments.UsageTable
	MisestimationTable  = experiments.MisestimationTable
	ReplicationTable    = experiments.ReplicationTable
	SpeedupVsCyclic     = experiments.SpeedupVsCyclic
	ChooseK             = experiments.ChooseK
	DefaultSchemes      = experiments.DefaultSchemes
)

// Decoding-matrix precomputation (paper §III.B: "A could be partially
// stored specially for regular stragglers").
type (
	// DecodingMatrix stores precomputed decoding rows per straggler pattern.
	DecodingMatrix = core.DecodingMatrix
	// StragglerPattern is a sorted straggler worker set.
	StragglerPattern = core.Pattern
	// DecodeCacheStats snapshots a strategy's decode-plan cache counters
	// (see Strategy.DecodeCacheStats, Strategy.InstallDecodingMatrix).
	DecodeCacheStats = metrics.CacheStats
)

// RegularPatterns enumerates straggler patterns of size ≤ s over a suspect
// worker set, for pre-storing their decoding rows.
func RegularPatterns(suspects []int, s int) []StragglerPattern {
	return core.RegularPatterns(suspects, s)
}

// AsciiPlot renders loss/time series as a terminal chart (Fig. 4 style).
var AsciiPlot = metrics.AsciiPlot

// MergeSeriesCSV writes several series as one wide CSV aligned on x.
var MergeSeriesCSV = metrics.MergeSeries

// Live telemetry plane: a dependency-free metrics registry with Prometheus
// text exposition, an HTTP server (/metrics, /healthz, /debug/events,
// /debug/trace, /debug/pprof), per-iteration phase tracing and a structured
// control-plane event journal. Set ElasticConfig.Obs / ShardedConfig.Obs /
// ElasticSimConfig.Obs to the same *Telemetry to instrument a run; nil (the
// default) disables everything. The sim and live runtimes emit the same
// metric families, so their scrapes are diffable.
type (
	// Telemetry is the canonical hetgc metric bundle plus the event journal
	// and iteration tracer.
	Telemetry = obs.Metrics
	// TelemetryServer is the HTTP server exposing a Telemetry bundle.
	TelemetryServer = obs.Server
	// TelemetryRegistry is the underlying metric registry (usable standalone
	// for custom metrics).
	TelemetryRegistry = obs.Registry
	// TelemetryEvent is one structured control-plane event (replan,
	// join/death, failover, fence, ...).
	TelemetryEvent = obs.Event
	// IterTrace is one traced iteration: phase spans from broadcast to
	// persist.
	IterTrace = obs.IterTrace
)

// NewTelemetry builds a Telemetry bundle on a fresh registry with
// default-capacity event journal and iteration tracer.
func NewTelemetry() *Telemetry { return obs.New() }

// ServeTelemetry starts the telemetry HTTP server on addr (host:port; port 0
// picks a free one) exposing m. Close the returned server when done.
func ServeTelemetry(m *Telemetry, addr string) (*TelemetryServer, error) {
	return obs.NewServer(addr, m)
}

// Cluster deployment: the configuration blocks and node assembly behind the
// standalone gcroot/gcworker binaries. A cluster is described once — a
// Roster for static discovery plus the composable durability/HA/telemetry
// blocks — and every process role (training root, warm standby, worker) is
// assembled from that one ClusterConfig. Workers fetch their training shards
// from the root's data plane, so a worker machine needs nothing but the
// roster file and the cluster's (seed, k) pair.
type (
	// DurabilityConfig selects checkpointing (journal + snapshots); embedded
	// by ElasticConfig, ShardedConfig, StandbyConfig and ClusterConfig.
	DurabilityConfig = clustercfg.DurabilityConfig
	// HAConfig selects lease-fenced high availability.
	HAConfig = clustercfg.HAConfig
	// TelemetryConfig plugs a Telemetry bundle into a runtime.
	TelemetryConfig = clustercfg.TelemetryConfig
	// WireConfig selects the run's gradient wire codec, raw or int8; the
	// root names it in every handshake ack.
	WireConfig = clustercfg.WireConfig
	// Roster is a cluster's static discovery plan: root address, standby
	// addresses in promotion order, expected worker count.
	Roster = node.Roster
	// ClusterConfig is the single declarative configuration a cluster node
	// runs from.
	ClusterConfig = node.ClusterConfig
	// Workload is the training job a cluster runs (model, optimizer, data).
	Workload = node.Workload
	// RootNode is a standalone training root (see StartRoot).
	RootNode = node.Root
	// WorkerNodeConfig configures a standalone worker process.
	WorkerNodeConfig = node.WorkerConfig
	// ReconnectPolicy bounds a worker's dial retry sequence.
	ReconnectPolicy = runtime.ReconnectPolicy
)

// Cluster configuration errors.
var (
	// ErrRoster marks an unusable roster file; every instance carries a
	// remediation hint.
	ErrRoster = node.ErrRoster
	// ErrBadNode marks an unusable cluster node configuration.
	ErrBadNode = node.ErrBadNode
)

// LoadRoster reads and parses a roster file (TOML or JSON, sniffed by
// content).
func LoadRoster(path string) (*Roster, error) { return node.LoadRoster(path) }

// ParseRoster parses a roster from TOML or JSON bytes.
func ParseRoster(b []byte) (*Roster, error) { return node.ParseRoster(b) }

// DefaultWorkload builds the seed-derived synthetic workload shared by the
// gcroot/gcworker binaries: the same (seed, k) yields bit-identical data on
// every machine.
func DefaultWorkload(seed int64, k int) (*Workload, error) {
	return node.DefaultWorkload(seed, k)
}

// StartRoot builds a cluster training root and starts accepting workers.
func StartRoot(cfg ClusterConfig, resume bool) (*RootNode, error) {
	return node.StartRoot(cfg, resume)
}

// RunStandby tails the checkpoint directory until the active root's lease
// lapses, then promotes and finishes the run. A nil result (with nil error)
// means stop was closed before promotion.
func RunStandby(cfg ClusterConfig, stop <-chan struct{}) (*ElasticResult, error) {
	return node.RunStandby(cfg, stop)
}

// RunWorkerNode runs the standalone worker loop: resolve the live root,
// dial, train until the connection drops, re-resolve and rejoin.
func RunWorkerNode(cfg WorkerNodeConfig, stop <-chan struct{}) error {
	return node.RunWorker(cfg, stop)
}

// ParamsDigest returns a short hex digest of a parameter vector, for
// comparing two runs for bit-identity.
func ParamsDigest(params []float64) string { return node.ParamsDigest(params) }

// NewRand returns a deterministic rand.Rand for the given seed — the only
// randomness source the library uses.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// SeedFromTime returns a time-based seed for interactive use.
func SeedFromTime() int64 { return time.Now().UnixNano() }
