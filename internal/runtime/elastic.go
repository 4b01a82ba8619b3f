// Package runtime is the worker side of the real distributed BSP training
// runtime: an ElasticWorker that computes, encodes and uploads coded partial
// gradients for whichever root it dials — the production counterpart of the
// paper's PyTorch deployment, exercised over TCP loopback in tests and
// examples. It follows migrations (MsgReassign carries the epoch and its
// assignment), keeps only the newest parameter broadcast (mailbox.go) and
// reports per-iteration telemetry that the root's control plane plans from.
//
// The root is shard.Root: a flat cluster is its one-group case. The names
// below keep the flat master's spelling for the callers that still use it.
package runtime

import (
	"github.com/hetgc/hetgc/internal/roster"
	"github.com/hetgc/hetgc/internal/shard"
)

type (
	// ElasticConfig configures a training root (see shard.Config).
	ElasticConfig = shard.Config
	// ElasticMaster is the training root (see shard.Root).
	ElasticMaster = shard.Root
	// ElasticResult summarises a training run (see shard.Result).
	ElasticResult = shard.Result
)

// Errors returned by the root and the worker.
var (
	// ErrBadConfig marks invalid root and worker configurations.
	ErrBadConfig = shard.ErrBadConfig
	// ErrIterationTimeout wraps every failure of an iteration: no decodable
	// set within the retry budget, a forced migration that failed, or a
	// non-finite sum.
	ErrIterationTimeout = shard.ErrGroupFailed
	// ErrTooFewWorkers is returned when the worker quorum did not join in
	// time.
	ErrTooFewWorkers = roster.ErrQuorum
	// ErrMigrationFailed is returned when a forced replan cannot produce a
	// viable strategy — under a fixed-shape scheme, as soon as fewer than K
	// members are alive.
	ErrMigrationFailed = roster.ErrMigrationFailed
)

// NewElasticMaster starts a training root on addr (see shard.NewRoot).
func NewElasticMaster(cfg ElasticConfig, addr string) (*ElasticMaster, error) {
	return shard.NewRoot(cfg, addr)
}
