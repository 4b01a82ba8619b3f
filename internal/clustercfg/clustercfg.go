// Package clustercfg holds the composable configuration blocks shared by
// every runtime entry point: durability (checkpoint + journal), high
// availability (lease fencing) and telemetry (the obs registry). Before this
// package the same six fields were duplicated — with slowly drifting doc
// comments — across the run configs. shard.Config, node.ClusterConfig,
// ha.StandbyConfig and the simulator's config now embed these structs.
//
// The package is a leaf: it may import internal/obs and the standard library
// only, so every runtime, simulator and binary can depend on it without
// cycles.
package clustercfg

import (
	"time"

	"github.com/hetgc/hetgc/internal/obs"
)

// DurabilityConfig selects checkpointing: a CRC-framed write-ahead journal
// plus generation-rotated snapshots under CheckpointDir (see
// internal/checkpoint). The zero value disables durability.
type DurabilityConfig struct {
	// CheckpointDir enables durable training state when non-empty: the
	// journal, snapshots and the HA lease token all live in this directory.
	CheckpointDir string
	// SnapshotEvery is the snapshot cadence in iterations (default 10 when
	// checkpointing is enabled).
	SnapshotEvery int
	// Resume restores training state from CheckpointDir instead of starting
	// fresh. Requires CheckpointDir.
	Resume bool
}

// HAConfig selects lease-fenced high availability (see internal/ha). The
// zero value disables the lease.
type HAConfig struct {
	// LeaseTTL enables the master lease when > 0: the master acquires and
	// renews a fencing token under the checkpoint directory, a warm standby
	// takes over when the token lapses. Requires a checkpoint directory.
	LeaseTTL time.Duration
	// Holder names this node in the lease token (default
	// rootcore.DefaultHolder).
	Holder string
}

// WireConfig selects the run's gradient wire codec (see internal/grad). The
// root decides it once and names it in every handshake ack; each worker and
// group master uploads in the codec its ack names. The zero value keeps raw
// uploads everywhere.
type WireConfig struct {
	// Codec names the gradient codec: "raw" (or empty) or "int8". Parsed by
	// grad.ParseCodec at the runtime layer; an unknown name is a config
	// error there.
	Codec string
}

// TelemetryConfig plugs a live metrics registry into a runtime (see
// internal/obs). The zero value disables telemetry.
type TelemetryConfig struct {
	// Obs receives roster, controller, checkpoint, HA and wire metrics plus
	// control-plane events when non-nil.
	Obs *obs.Metrics
}
