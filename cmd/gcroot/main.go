// Command gcroot runs the standalone training root of a multi-machine hetgc
// cluster — or, with -role standby, the warm standby that takes over when the
// root's lease lapses. Every machine shares one roster file (static
// discovery) and, for failover, one checkpoint directory (shared storage):
//
//	# cluster.toml — shared by every machine
//	root = "10.0.0.1:7000"
//	standbys = ["10.0.0.2:7000"]
//	workers = 4
//
//	machine1$ gcroot -roster cluster.toml -checkpoint-dir /shared/ckpt -lease-ttl 2s -iters 50
//	machine2$ gcroot -roster cluster.toml -role standby -listen 10.0.0.2:7000 \
//	              -checkpoint-dir /shared/ckpt -lease-ttl 2s -iters 50
//	machine3$ gcworker -roster cluster.toml -k 8 -seed 1
//
// The root serves training-data shards to workers over its data plane, so
// workers need nothing but the roster and the (seed, k) pair. Kill the root
// mid-run and the standby promotes, resumes from the last durable iteration
// and finishes the job; with -pin-estimates the failed-over run's final
// parameters are bit-identical to an uninterrupted one.
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
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/node"
	"github.com/hetgc/hetgc/internal/shard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gcroot:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gcroot", flag.ContinueOnError)
	var (
		rosterPath  = fs.String("roster", "", "roster file (TOML or JSON) naming the root, standbys and worker count")
		role        = fs.String("role", "root", "role: root (train) or standby (tail the checkpoint directory, take over on lease lapse)")
		listen      = fs.String("listen", "", "address this node binds; defaults to the roster's root entry (a standby must pass its own roster entry)")
		k           = fs.Int("k", 8, "data partition count")
		s           = fs.Int("s", 0, "straggler budget")
		iters       = fs.Int("iters", 30, "training iterations")
		seed        = fs.Int64("seed", 1, "random seed; every machine derives the identical workload from (seed, k)")
		pin         = fs.Bool("pin-estimates", false, "freeze the planner on the seeded initial strategy — bit-deterministic runs, including across failover")
		resume      = fs.Bool("resume", false, "resume from the state in -checkpoint-dir instead of starting fresh")
		iterTimeout = fs.Duration("iter-timeout", 30*time.Second, "per-iteration timeout")
		wait        = fs.Duration("wait", 60*time.Second, "how long to wait for the roster's worker quorum")
		holder      = fs.String("holder", "", "name this node carries in the lease token (default gcroot or gcroot-standby)")
		shared      cliflags.Cluster
	)
	cliflags.Register(fs, &shared)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := shared.Validate(); err != nil {
		return err
	}
	if *rosterPath == "" {
		return errors.New("-roster is required — every cluster member shares one roster file (see gcroot -h for the schema)")
	}
	if shared.CheckpointDir == "" || shared.LeaseTTL <= 0 {
		return errors.New("a cluster root requires -checkpoint-dir and -lease-ttl: failover needs a durable directory and a lease over it")
	}
	if *role != "root" && *role != "standby" {
		return fmt.Errorf("unknown -role %q: gcroot runs as root or standby", *role)
	}
	if *role == "standby" && *listen == "" {
		return errors.New("-role standby requires -listen (the standby binds its own roster entry, not the root's)")
	}
	roster, err := node.LoadRoster(*rosterPath)
	if err != nil {
		return err
	}
	if *holder == "" {
		*holder = "gcroot"
		if *role == "standby" {
			*holder = "gcroot-standby"
		}
	}

	tel, srv, err := shared.StartTelemetry(os.Stderr, os.Stdout)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
	}

	cfg := node.ClusterConfig{
		Roster:           *roster,
		Listen:           *listen,
		K:                *k,
		S:                *s,
		Iterations:       *iters,
		Seed:             *seed,
		IterTimeout:      *iterTimeout,
		PinEstimates:     *pin,
		DurabilityConfig: shared.Durability(),
		HAConfig:         shared.HA(*holder),
		TelemetryConfig:  clustercfg.TelemetryConfig{Obs: tel},
		Wire:             shared.Wire(),
	}

	if *role == "standby" {
		return runStandby(cfg, *iters)
	}
	return runRoot(cfg, *resume, *iters, *wait)
}

// runRoot trains as the active root. SIGINT/SIGTERM tears the root down cold
// — exactly the failure the standby is there to absorb.
func runRoot(cfg node.ClusterConfig, resume bool, iters int, wait time.Duration) error {
	root, err := node.StartRoot(cfg, resume)
	if err != nil {
		return err
	}
	if resume {
		fmt.Printf("resumed from checkpoint %s at iteration %d\n", cfg.CheckpointDir, root.StartIter())
	}
	fmt.Printf("gcroot: training root on %s; k=%d s=%d iters=%d waiting for %d workers\n",
		root.Addr(), cfg.K, cfg.S, iters, cfg.Roster.Workers)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if sig, ok := <-sigs; ok {
			fmt.Fprintf(os.Stderr, "gcroot: %v — tearing down cold (the standby takes over)\n", sig)
			root.Close()
		}
	}()

	res, err := root.Run(wait)
	if err != nil {
		return err
	}
	report(res, iters)
	return nil
}

// runStandby tails the checkpoint directory, promotes when the lease lapses
// and finishes the deposed root's run. SIGINT/SIGTERM before promotion exits
// cleanly.
func runStandby(cfg node.ClusterConfig, iters int) error {
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			close(stop)
		}
	}()

	fmt.Printf("gcroot: standby tailing %s, waiting for the root lease to lapse\n", cfg.CheckpointDir)
	res, err := node.RunStandby(cfg, stop)
	if err != nil {
		return err
	}
	if res == nil {
		fmt.Println("gcroot: standby stopped before promotion")
		return nil
	}
	fmt.Printf("gcroot: promoted — resumed at iteration %d on %s\n", res.StartIter, cfg.Listen)
	report(res, iters)
	return nil
}

// report prints the completion line both humans and the process e2e read; the
// params digest is what two runs compare for bit-identity.
func report(res *shard.Result, iters int) {
	fmt.Printf("done: iterations %d..%d  root generation %d  fenced uploads %d\n",
		res.StartIter, iters, res.RootGen, res.Groups[0].FencedRejected)
	fmt.Printf("params digest: %s\n", node.ParamsDigest(res.Params))
}
