// Command gcworker runs a standalone training worker of a multi-machine
// hetgc cluster. It needs only the shared roster file and the cluster's
// (seed, k) pair — the model comes from the seed-derived workload and the
// training shards arrive over the root's data plane:
//
//	gcworker -roster cluster.toml -k 8 -seed 1
//
// The worker dials the roster's root, trains until the connection drops, then
// re-resolves and rejoins under the same member identity — trying the lease
// token's address first when -checkpoint-dir points at storage shared with
// the root (it names the live generation after a failover), then the
// roster's root and standbys in order. It exits cleanly when the root
// finishes training.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/hetgc/hetgc/internal/cliflags"
	"github.com/hetgc/hetgc/internal/node"
	"github.com/hetgc/hetgc/internal/runtime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gcworker:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gcworker", flag.ContinueOnError)
	var (
		rosterPath  = fs.String("roster", "", "roster file (TOML or JSON) naming the root, standbys and worker count")
		k           = fs.Int("k", 8, "data partition count; must match the root's")
		seed        = fs.Int64("seed", 1, "random seed; must match the root's — (seed, k) derives the workload")
		slowMs      = fs.Int("slow-ms", 0, "artificial per-iteration compute delay (straggler/fault simulation)")
		dialTimeout = fs.Duration("dial-timeout", 2*time.Second, "timeout for one dial attempt")
		attempts    = fs.Int("reconnect-attempts", 1, "dial attempts per address per resolve cycle")
		backoff     = fs.Duration("reconnect-backoff", 250*time.Millisecond, "initial backoff between dial attempts (doubles per retry)")
		maxCycles   = fs.Int("max-cycles", 0, "bound on full passes over the roster before giving up (0 = keep trying)")
		shared      cliflags.Cluster
	)
	cliflags.Register(fs, &shared)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := shared.Validate(); err != nil {
		return err
	}
	if shared.Codec != "" {
		return errors.New("-codec is the root's choice (gcroot -codec); a worker uploads in the codec the root names when it joins")
	}
	if *rosterPath == "" {
		return errors.New("-roster is required — every cluster member shares one roster file (see gcworker -h for the schema)")
	}
	roster, err := node.LoadRoster(*rosterPath)
	if err != nil {
		return err
	}

	// A worker has no iteration pipeline of its own, but -metrics-addr still
	// serves /healthz and /debug/pprof/ — enough to tell "worker wedged" from
	// "worker waiting for a root".
	_, srv, err := shared.StartTelemetry(os.Stderr, os.Stdout)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
	}

	cfg := node.WorkerConfig{
		Roster:        *roster,
		K:             *k,
		Seed:          *seed,
		CheckpointDir: shared.CheckpointDir,
		DialTimeout:   *dialTimeout,
		MaxCycles:     *maxCycles,
		Reconnect: runtime.ReconnectPolicy{
			MaxAttempts: *attempts,
			Backoff:     *backoff,
		},
	}
	if *slowMs > 0 {
		cfg.Delay = func(int) time.Duration { return time.Duration(*slowMs) * time.Millisecond }
	}

	stop := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			close(stop)
		}
	}()

	fmt.Printf("gcworker: joining cluster (root %s, %d standbys); shards fetched over the wire\n",
		roster.Root, len(roster.Standbys))
	if err := node.RunWorker(cfg, stop); err != nil {
		return err
	}
	fmt.Println("gcworker: training finished, shutting down")
	return nil
}
