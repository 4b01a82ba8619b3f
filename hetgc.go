// Package hetgc is a Go implementation of heterogeneity-aware gradient
// coding for straggler tolerance (Wang et al., ICDCS 2019). It provides:
//
//   - Coding strategies: the paper's heter-aware (Alg. 1) and group-based
//     (Alg. 2/3) schemes, plus Tandon et al.'s cyclic code — see
//     NewHeterAware, NewGroupBased, NewCyclic — and BuildStrategy, which
//     builds any of the five Kinds from throughput estimates.
//   - Encoding/decoding of gradient vectors (EncodeGradient, Strategy.Decode,
//     CombineGradients).
//   - A discrete-event simulator of the paper's evaluation: one iteration
//     loop (SimulateElastic) that runs every scheme through the live
//     runtimes' control plane, flat or in coding groups, timing-only or with
//     real gradients, on the Table II clusters (ClusterA…ClusterD).
//   - A real TCP root/worker runtime that hosts every scheme and re-codes
//     on drift and churn (NewRoot, DialElasticWorker). One root hosts G ≥ 1
//     coding groups: a flat cluster is one group, and splitting the fleet
//     into groups scales the scheme to hundreds of workers.
//   - Experiment runners behind `gcsim -exp` (RunFig2Sweep, RunFig3Clusters,
//     RunFig4LossCurves, RunMisestimation, RunReplicationSweep, Table2).
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
	"github.com/hetgc/hetgc/internal/experiments"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/metrics"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/node"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/planner"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/sim"
)

// Core coding types.
type (
	// Strategy is a gradient coding strategy: allocation + coding matrix +
	// decoder. See the Kind constants for the five families.
	Strategy = core.Strategy
	// Kind identifies a strategy family.
	Kind = core.Kind
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

// Cluster is a heterogeneous worker fleet.
type Cluster = cluster.Cluster

// Table II clusters of the paper.
var (
	ClusterA = cluster.ClusterA
	ClusterB = cluster.ClusterB
	ClusterC = cluster.ClusterC
	ClusterD = cluster.ClusterD
)

// ML substrate.
type (
	// Model is a differentiable model over flat parameters.
	Model = ml.Model
	// Dataset holds features and labels.
	Dataset = ml.Dataset
	// Softmax is the built-in multinomial logistic-regression model.
	Softmax = ml.Softmax
	// SGD is the built-in optimizer.
	SGD = ml.SGD
)

// GaussianMixture generates a synthetic classification dataset.
func GaussianMixture(n, dim, classes int, sep float64, rng *rand.Rand) (*Dataset, error) {
	return ml.GaussianMixture(n, dim, classes, sep, rng)
}

// MeanLoss evaluates a model's mean loss on a dataset.
func MeanLoss(m Model, params []float64, d *Dataset) (float64, error) {
	return ml.MeanLoss(m, params, d)
}

// Durable training state: the checkpoint + journal subsystem behind
// RootConfig.CheckpointDir. A root with a checkpoint directory journals
// every migration, iteration and membership event and snapshots the model
// atomically; Resume reconstructs it after a crash with pre-crash uploads
// fenced by epoch. CheckpointState is the recovered view of a checkpoint
// directory.
type CheckpointState = checkpoint.State

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

// The training root and its workers: live telemetry, online re-planning and
// epoch-versioned mid-training strategy migration. A root hosts G ≥ 1
// independently-coded groups, each with its own group master (local decode,
// group-local elastic control plane, per-group epochs) and its own slice of
// the global partitions. With no Throughputs it is one group over every
// partition, the flat cluster; with Throughputs the fleet is laid out in
// groups whose decoded sums the root reduces along a fan-in tree.
type (
	// Root drives elastic BSP training over workers that may join, die and
	// rejoin mid-run, migrating each group's coding strategy on drift/churn.
	Root = shard.Root
	// RootConfig configures a root (coding parameters, group layout and the
	// control plane's drift/cooldown knobs).
	RootConfig = shard.Config
	// RootResult summarises a run (per-group stats included).
	RootResult = shard.Result
	// ElasticWorker is a migration-aware, telemetry-reporting worker.
	ElasticWorker = runtime.ElasticWorker
	// ElasticWorkerConfig configures an elastic worker (set ResumeID to
	// reclaim a member slot after a reconnect).
	ElasticWorkerConfig = runtime.ElasticWorkerConfig
)

// NewRoot starts a root accepting workers on addr (a one-group root) or on
// the group addresses it exposes (GroupAddrs/Plan).
func NewRoot(cfg RootConfig, addr string) (*Root, error) {
	return shard.NewRoot(cfg, addr)
}

// DialElasticWorker connects an elastic worker to a root; it receives its
// assignments via epoch-versioned reassignment messages.
func DialElasticWorker(addr string, cfg ElasticWorkerConfig) (*ElasticWorker, error) {
	return runtime.DialElasticWorker(addr, cfg)
}

// High availability: a root with RootConfig.LeaseTTL set holds a monotonic
// lease over its checkpoint directory. Every broadcast carries the lease
// generation, every upload echoes it, and every journal write verifies it —
// so when a standby takes over the directory at the next generation, the
// deposed root's writes are rejected typed (ErrFenced) instead of corrupting
// the successor's run.
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

// Deterministic elastic churn simulation.
type (
	// ElasticSimConfig parameterises a socket-free elastic control-loop
	// simulation over a seeded churn schedule.
	ElasticSimConfig = sim.ElasticSimConfig
	// ElasticSimResult aggregates an elastic simulation run.
	ElasticSimResult = sim.ElasticSimResult
	// ChurnEvent is one scheduled speed step, kill, join or rejoin.
	ChurnEvent = sim.ChurnEvent
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

// BuildStrategy builds a strategy of any scheme over m = len(estimates)
// workers from throughput estimates: the one step from estimates to a code,
// shared by the experiments and the elastic control plane.
func BuildStrategy(kind Kind, estimates []float64, k, s int, rng *rand.Rand) (*Strategy, error) {
	return planner.BuildStrategy(kind, estimates, k, s, rng)
}

// Experiments (paper figures and tables).
type (
	// DelaySweepConfig parameterises Fig. 2.
	DelaySweepConfig = experiments.DelaySweepConfig
	// ClusterSweepConfig parameterises Figs. 3 and 5.
	ClusterSweepConfig = experiments.ClusterSweepConfig
	// LossCurveConfig parameterises Fig. 4.
	LossCurveConfig = experiments.LossCurveConfig
	// MisestimationConfig parameterises the estimation ablation.
	MisestimationConfig = experiments.MisestimationConfig
	// ReplicationSweepConfig parameterises the s ablation.
	ReplicationSweepConfig = experiments.ReplicationSweepConfig
)

// Experiment runners and their renderers. Each pair prints one `gcsim -exp`
// table: RunFig2Sweep and DelayTable are fig2a/fig2b, RunFig3Clusters with
// ClusterTable and UsageTable are fig3 and fig5, RunFig4LossCurves is fig4,
// RunMisestimation is ablation-misest, RunReplicationSweep is ablation-s and
// Table2 is table2.
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
)

// AsciiPlot renders loss/time series as a terminal chart (Fig. 4 style).
var AsciiPlot = metrics.AsciiPlot

// Live telemetry plane: a dependency-free metrics registry with Prometheus
// text exposition, an HTTP server (/metrics, /healthz, /debug/events,
// /debug/trace, /debug/pprof), per-iteration phase tracing and a structured
// control-plane event journal. Set RootConfig.Obs / ElasticSimConfig.Obs to
// the same *Telemetry to instrument a run; nil (the default) disables
// everything. The sim and live runtimes emit the same
// metric families, so their scrapes are diffable.
type (
	// Telemetry is the canonical hetgc metric bundle plus the event journal
	// and iteration tracer.
	Telemetry = obs.Metrics
	// TelemetryServer is the HTTP server exposing a Telemetry bundle.
	TelemetryServer = obs.Server
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
	// by RootConfig, StandbyConfig and ClusterConfig.
	DurabilityConfig = clustercfg.DurabilityConfig
	// HAConfig selects lease-fenced high availability.
	HAConfig = clustercfg.HAConfig
	// TelemetryConfig plugs a Telemetry bundle into a runtime.
	TelemetryConfig = clustercfg.TelemetryConfig
	// Roster is a cluster's static discovery plan: root address, standby
	// addresses in promotion order, expected worker count.
	Roster = node.Roster
	// ClusterConfig is the single declarative configuration a cluster node
	// runs from.
	ClusterConfig = node.ClusterConfig
	// Workload is the training job a cluster runs (model, optimizer, data).
	Workload = node.Workload
	// WorkerNodeConfig configures a standalone worker process.
	WorkerNodeConfig = node.WorkerConfig
)

// Cluster configuration errors.
var (
	// ErrRoster marks an unusable roster file; every instance carries a
	// remediation hint.
	ErrRoster = node.ErrRoster
	// ErrBadNode marks an unusable cluster node configuration.
	ErrBadNode = node.ErrBadNode
)

// RunWorkerNode runs the standalone worker loop: resolve the live root,
// dial, train until the connection drops, re-resolve and rejoin.
func RunWorkerNode(cfg WorkerNodeConfig, stop <-chan struct{}) error {
	return node.RunWorker(cfg, stop)
}

// NewRand returns a deterministic rand.Rand for the given seed — the only
// randomness source the library uses.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
