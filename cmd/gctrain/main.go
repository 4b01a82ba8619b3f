// Command gctrain runs a real distributed training job over TCP loopback:
// one root plus m in-process workers, gradient coding end to end —
// broadcast, compute, encode, upload, decode, step. Every scheme trains on
// the same elastic runtime: heter and group re-code to the speeds the
// workers report, cyclic and naive keep one code over k = m partitions. A
// configurable artificial delay turns one worker into a straggler,
// reproducing the paper's fault simulation on a real wire protocol.
//
//	gctrain -scheme heter -iters 30 -straggler-ms 200
//	gctrain -scheme cyclic -iters 30 -straggler-ms 200
//
// With -checkpoint-dir the job's state is durable: a write-ahead journal
// plus periodic model snapshots. Kill the process mid-run, rerun with
// -resume, and training continues from the last snapshot with every
// pre-crash upload fenced:
//
//	gctrain -checkpoint-dir /tmp/ckpt -iters 50
//	gctrain -checkpoint-dir /tmp/ckpt -iters 50 -resume
//
// With -lease-ttl the master additionally holds the HA root lease over the
// checkpoint directory, and -standby runs a warm standby that tails the
// directory and takes over training the moment the lease lapses:
//
//	gctrain -checkpoint-dir /tmp/ckpt -iters 50 -lease-ttl 2s
//	gctrain -checkpoint-dir /tmp/ckpt -iters 50 -lease-ttl 2s -standby
//
// With -metrics-addr the run serves live telemetry over HTTP — Prometheus
// metrics at /metrics, the structured event journal at /debug/events,
// iteration phase traces at /debug/trace and pprof at /debug/pprof/ — and
// -trace streams each iteration's phase breakdown to stderr as JSON lines:
//
//	gctrain -metrics-addr 127.0.0.1:9090 -iters 50
//	curl -s http://127.0.0.1:9090/metrics | grep hetgc_
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/hetgc/hetgc"
	"github.com/hetgc/hetgc/internal/cliflags"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gctrain:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gctrain", flag.ContinueOnError)
	var (
		scheme      = fs.String("scheme", "heter", "scheme: heter, group, cyclic, naive")
		iters       = fs.Int("iters", 30, "training iterations")
		s           = fs.Int("s", 1, "straggler budget")
		stragglerMs = fs.Int("straggler-ms", 200, "artificial delay of worker 0 per iteration (ms)")
		seed        = fs.Int64("seed", 1, "random seed")
		resume      = fs.Bool("resume", false, "resume from the state in -checkpoint-dir instead of starting fresh")
		standby     = fs.Bool("standby", false, "run as a warm standby: tail -checkpoint-dir and take over training when the lease lapses")
		shared      cliflags.Cluster
	)
	cliflags.Register(fs, &shared)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := shared.Validate(); err != nil {
		return err
	}
	kind, ok := map[string]hetgc.Kind{
		"heter": hetgc.HeterAware, "group": hetgc.GroupBased, "cyclic": hetgc.Cyclic, "naive": hetgc.Naive,
	}[*scheme]
	if !ok {
		return fmt.Errorf("unknown scheme %q", *scheme)
	}
	if *resume && shared.CheckpointDir == "" {
		return errors.New("-resume requires -checkpoint-dir (the directory holding the journal and snapshots of the run to continue)")
	}
	if *standby && shared.CheckpointDir == "" {
		return errors.New("-standby requires -checkpoint-dir (the lease lives in the checkpoint directory)")
	}
	tel, srv, err := shared.StartTelemetry(os.Stderr, os.Stdout)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
	}
	if *standby {
		if err := standBy(shared.CheckpointDir, tel); err != nil {
			return err
		}
		// Promoted: continue the deposed root's run at the next generation.
		*resume = true
	}
	return train(kind, *iters, *s, *stragglerMs, *seed, shared, *resume, tel)
}

// train runs the job on the elastic runtime, with a checkpoint directory
// when one is given: journaled iterations, periodic snapshots, and — with
// resume — exact continuation from the last snapshot. The flag surface
// routes through ClusterConfig — the same assembly the standalone gcroot
// binary uses — so an in-process gctrain run and a multi-machine cluster are
// configured by the identical code path.
func train(kind hetgc.Kind, iters, s, stragglerMs int, seed int64, shared cliflags.Cluster, resume bool, tel *hetgc.Telemetry) error {
	dir := shared.CheckpointDir

	// The workload is derived from the seed, so a resumed process rebuilds
	// the identical dataset and partitioning. m loopback workers share k
	// partitions; a fixed-shape scheme gives each worker one partition's slot.
	const m = 5
	k := 7
	if kind.FixedShape() {
		k = m
	}
	rng := hetgc.NewRand(seed)
	data, err := hetgc.GaussianMixture(k*30, 8, 3, 3, rng)
	if err != nil {
		return err
	}
	parts, err := data.Split(k)
	if err != nil {
		return err
	}
	model := &hetgc.Softmax{InputDim: 8, NumClasses: 3}

	ecfg, err := hetgc.ClusterConfig{
		// The "cluster" is this process: m loopback workers, quorum m.
		Roster: hetgc.Roster{Root: "127.0.0.1:0", Workers: m},
		K:      k, S: s, Scheme: kind,
		Iterations:  iters,
		Seed:        seed,
		IterTimeout: 10 * time.Second,
		Workload: &hetgc.Workload{
			Model:     model,
			Optimizer: &hetgc.SGD{LR: 0.5, Momentum: 0.5},
			Data:      data,
			Parts:     parts,
		},
		DurabilityConfig: shared.Durability(),
		HAConfig:         shared.HA(""),
		TelemetryConfig:  hetgc.TelemetryConfig{Obs: tel},
		Wire:             shared.Wire(),
	}.ElasticConfig(resume)
	if err != nil {
		return err
	}
	ecfg.LossEvery = 5
	ecfg.LossFn = func(p []float64) (float64, error) {
		return hetgc.MeanLoss(model, p, data)
	}
	master, err := hetgc.NewRoot(ecfg, "127.0.0.1:0")
	if err != nil {
		return remediate(err, dir)
	}
	if resume {
		fmt.Printf("resumed from checkpoint %s at iteration %d\n", dir, master.StartIter())
	}
	if gen := master.RootGen(); gen > 0 {
		fmt.Printf("holding root lease: generation %d, ttl %s\n", gen, shared.LeaseTTL)
	}
	if dir != "" {
		fmt.Printf("root on %s; scheme=%v k=%d s=%d checkpoint-dir=%s snapshot-every=%d\n",
			master.Addr(), kind, k, s, dir, shared.SnapshotEvery)
	} else {
		fmt.Printf("root on %s; scheme=%v k=%d s=%d\n", master.Addr(), kind, k, s)
	}

	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wcfg := hetgc.ElasticWorkerConfig{
				Model:         model,
				PartitionData: func(p int) (*hetgc.Dataset, error) { return parts[p], nil },
			}
			if i == 0 && stragglerMs > 0 {
				wcfg.Delay = func(int) time.Duration {
					return time.Duration(stragglerMs) * time.Millisecond
				}
			}
			w, err := hetgc.DialElasticWorker(master.Addr(), wcfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "worker %d: %v\n", i, err)
				return
			}
			_ = w.Run()
		}(i)
	}
	if err := master.WaitForWorkers(10 * time.Second); err != nil {
		master.Close()
		return err
	}
	res, err := master.Run()
	wg.Wait()
	if err != nil {
		return remediate(err, dir)
	}
	grp := res.Groups[0] // the one group: this cluster is flat
	if len(grp.Epochs) == 0 {
		fmt.Printf("\nnothing to do: the checkpoint already covers all %d iterations (raise -iters to continue training)\n", iters)
		return nil
	}
	fmt.Printf("\niterations %d..%d done  mean %.1fms  final epoch %d  stale-epoch fenced: %d\n",
		res.StartIter, iters, res.Summary.Mean*1e3, grp.Epochs[len(grp.Epochs)-1], grp.StaleEpochRejected)
	if res.RootGen > 0 {
		fmt.Printf("high availability: root generation %d  stale-generation uploads fenced: %d\n",
			res.RootGen, grp.FencedRejected)
		if res.RootGen > 1 {
			fmt.Printf("  this run took over from a deposed root (generation %d) and kept its progress\n", res.RootGen-1)
		}
	}
	fmt.Println("loss curve (time s, mean loss):")
	for _, p := range res.Curve.Points {
		fmt.Printf("  %8.3f  %.4f\n", p.X, p.Y)
	}
	if tel != nil {
		if rep := tel.StragglerReport(0); rep.Slowest != nil {
			sl := rep.Slowest
			fmt.Printf("\nstraggler attribution (window: %d traced iterations):\n", rep.WindowIters)
			fmt.Printf("  slowest: member %d  mean contribution %.1fms  gated %d iterations  slowest phase %s (%.1fms)  trend %s\n",
				sl.Member, sl.MeanSeconds*1e3, sl.GatedIters, sl.SlowestPhase, sl.SlowestPhaseSeconds*1e3, sl.Trend)
			for i, mr := range rep.Members {
				if i >= 5 {
					fmt.Printf("  … %d more members at /debug/stragglers\n", len(rep.Members)-i)
					break
				}
				fmt.Printf("  member %-3d contribs %-3d erasures %-2d mean %7.1fms  last %7.1fms  %s\n",
					mr.Member, mr.Contribs, mr.Erasures, mr.MeanSeconds*1e3, mr.LastSeconds*1e3, mr.Trend)
			}
		}
		if evs := tel.Journal().Recent(20); len(evs) > 0 {
			fmt.Println("\nevent journal (most recent):")
			for _, ev := range evs {
				line := fmt.Sprintf("  #%-4d %-9s iter=%d", ev.Seq, ev.Kind, ev.Iter)
				if ev.Member != 0 {
					line += fmt.Sprintf(" member=%d", ev.Member)
				}
				if ev.Detail != "" {
					line += " " + ev.Detail
				}
				fmt.Println(line)
			}
		}
	}
	if dir != "" {
		fmt.Printf("rerun with -resume to continue from the last snapshot in %s\n", dir)
	}
	return nil
}

// standBy tails the checkpoint directory until its root lease lapses, then
// returns so the caller can take over at the next generation.
func standBy(dir string, tel *hetgc.Telemetry) error {
	fmt.Printf("standby: tailing %s, waiting for the root lease to lapse\n", dir)
	prom, err := hetgc.NewStandby(hetgc.StandbyConfig{DurabilityConfig: hetgc.DurabilityConfig{CheckpointDir: dir}}).Run(nil)
	if err != nil {
		return fmt.Errorf("standby: %w", err)
	}
	last := -1
	if prom.State != nil {
		last = prom.State.LastIter
	}
	// The promoted master's own Acquire claims the next generation; record
	// the takeover now, at the moment the standby decides to promote.
	tel.OnPromotion(uint64(prom.Deposed.Gen+1), last)
	fmt.Printf("standby: promoted — generation %d (%q) lapsed; freshest durable iteration: %d\n",
		prom.Deposed.Gen, prom.Deposed.Holder, last)
	return nil
}

// remediate attaches an actionable hint to the typed checkpoint and
// high-availability failures.
func remediate(err error, dir string) error {
	switch {
	case errors.Is(err, hetgc.ErrFenced):
		hint := "let it finish, or restart this process with -standby to queue as its successor"
		if tok, terr := hetgc.ReadLeaseToken(dir); terr == nil {
			return fmt.Errorf("%w\n  hint: root generation %d (%q at %s) now owns %s — %s",
				err, tok.Gen, tok.Holder, tok.Addr, dir, hint)
		}
		return fmt.Errorf("%w\n  hint: a newer root generation owns %s — %s", err, dir, hint)
	case errors.Is(err, hetgc.ErrLeaseHeld):
		return fmt.Errorf("%w\n  hint: another live root holds the lease on %s — run this process with -standby to wait for it, or stop the other root first", err, dir)
	case errors.Is(err, hetgc.ErrNoCheckpoint):
		return fmt.Errorf("%w\n  hint: %s holds no checkpoint state — drop -resume to start a fresh run there", err, dir)
	case errors.Is(err, hetgc.ErrCheckpointCorrupt):
		return fmt.Errorf("%w\n  hint: every snapshot in %s failed its integrity check — restore the directory from a backup, or start fresh in an empty -checkpoint-dir", err, dir)
	case errors.Is(err, hetgc.ErrCheckpointExists):
		return fmt.Errorf("%w\n  hint: %s already holds a run's durable state — pass -resume to continue it, or point -checkpoint-dir at an empty directory", err, dir)
	default:
		return err
	}
}
