// Package cliflags holds the flag block shared by every cluster-aware
// binary: gctrain, gcroot and gcworker all take the same durability, HA and
// telemetry flags with the same names, defaults and cross-flag rules. One
// registration site keeps `gcroot -checkpoint-dir` and `gctrain
// -checkpoint-dir` from drifting apart, and one Validate keeps the
// remediation hints identical across binaries.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/obs"
)

// Cluster is the parsed shared block. Zero values disable each subsystem,
// matching the zero values of the clustercfg blocks they map onto.
type Cluster struct {
	CheckpointDir string
	SnapshotEvery int
	LeaseTTL      time.Duration
	MetricsAddr   string
	Trace         bool
	Codec         string
}

// Register installs the shared flags on fs. The names and help strings are
// the contract: they must read identically in every binary's -h output.
func Register(fs *flag.FlagSet, c *Cluster) {
	fs.StringVar(&c.CheckpointDir, "checkpoint-dir", "", "durable-state directory (journal + snapshots); enables the elastic runtime")
	fs.IntVar(&c.SnapshotEvery, "snapshot-every", 5, "snapshot cadence in iterations (with -checkpoint-dir)")
	fs.DurationVar(&c.LeaseTTL, "lease-ttl", 0, "hold the HA root lease over -checkpoint-dir with this TTL (0 disables)")
	fs.StringVar(&c.MetricsAddr, "metrics-addr", "", "serve live telemetry on this host:port (/metrics, /healthz, /debug/events, /debug/trace, /debug/stragglers, /debug/pprof/); uses the elastic runtime")
	fs.BoolVar(&c.Trace, "trace", false, "stream per-iteration phase traces to stderr as JSON lines; uses the elastic runtime")
	fs.StringVar(&c.Codec, "codec", "", "gradient wire codec (raw or int8), set on the root: every worker and group master uploads in the codec the root names when it joins")
}

// Validate enforces the cross-flag rules every binary shares.
func (c *Cluster) Validate() error {
	if c.LeaseTTL < 0 {
		return errors.New("-lease-ttl must be positive")
	}
	if c.LeaseTTL > 0 && c.CheckpointDir == "" {
		return errors.New("-lease-ttl requires -checkpoint-dir (the lease lives in the checkpoint directory)")
	}
	if c.Codec != "" {
		if _, err := grad.ParseCodec(c.Codec); err != nil {
			return fmt.Errorf("-codec: %w", err)
		}
	}
	return nil
}

// Wire returns the gradient-codec block the flags select.
func (c *Cluster) Wire() clustercfg.WireConfig {
	return clustercfg.WireConfig{Codec: c.Codec}
}

// Durability returns the durability block the flags select.
func (c *Cluster) Durability() clustercfg.DurabilityConfig {
	return clustercfg.DurabilityConfig{
		CheckpointDir: c.CheckpointDir,
		SnapshotEvery: c.SnapshotEvery,
	}
}

// HA returns the high-availability block the flags select, naming this node
// holder in the lease token.
func (c *Cluster) HA(holder string) clustercfg.HAConfig {
	return clustercfg.HAConfig{LeaseTTL: c.LeaseTTL, Holder: holder}
}

// StartTelemetry builds the telemetry the flags ask for: a metrics bundle
// when either -metrics-addr or -trace is set, an HTTP server when
// -metrics-addr is set, a stderr trace stream when -trace is set. The caller
// owns the returned server (may be nil) and must Close it; a nil Metrics
// means telemetry is off. stderr receives the trace stream, status the
// one-line "telemetry on ..." banner (either may be nil to discard).
func (c *Cluster) StartTelemetry(stderr, status io.Writer) (*obs.Metrics, *obs.Server, error) {
	if c.MetricsAddr == "" && !c.Trace {
		return nil, nil, nil
	}
	m := obs.New()
	if c.Trace && stderr != nil {
		m.Tracer().Stream(stderr)
	}
	if c.MetricsAddr == "" {
		return m, nil, nil
	}
	srv, err := obs.NewServer(c.MetricsAddr, m)
	if err != nil {
		return nil, nil, fmt.Errorf("telemetry server: %w", err)
	}
	if status != nil {
		fmt.Fprintf(status, "telemetry on %s/metrics (events at /debug/events, traces at /debug/trace, stragglers at /debug/stragglers, pprof at /debug/pprof/)\n", srv.URL())
	}
	return m, srv, nil
}
