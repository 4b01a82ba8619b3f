// Sharded: the hierarchical group-sharded runtime live on loopback TCP.
// Twelve workers are partitioned into four coding groups of three; each
// group master, hosted in the root's process, admits its own workers on its
// own address and decodes its group's gradient sum locally; the root reduces
// the four group sums along a fan-in-2 tree and steps the optimizer. Mid-run one worker of group 0
// slows down 12x: its group's control plane detects the drift in telemetry
// and migrates *that group alone* — the other three groups finish the whole
// run on their initial epoch. A deterministic flat-vs-sharded comparison at
// 200 simulated workers is printed alongside: hetgc.SimulateElastic with
// GroupSize 10, against the same fleet as one group, the flat runtime.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/hetgc/hetgc"
)

const (
	k, s      = 16, 1
	m         = 12
	iters     = 24
	slowAt    = 6 // iteration at which one group-0 worker slows 12x
	fastDelay = 2 * time.Millisecond
	slowDelay = 24 * time.Millisecond
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := hetgc.NewRand(1)
	data, err := hetgc.GaussianMixture(k*20, 4, 3, 3, rng)
	if err != nil {
		return err
	}
	parts, err := data.Split(k)
	if err != nil {
		return err
	}
	model := &hetgc.Softmax{InputDim: 4, NumClasses: 3}

	throughputs := make([]float64, m)
	for i := range throughputs {
		throughputs[i] = 500 // ~2ms per partition
	}
	cfg := hetgc.ShardedConfig{
		K: k, S: s, GroupSize: 3, FanIn: 2,
		Throughputs:     throughputs,
		Model:           model,
		Optimizer:       &hetgc.SGD{LR: 0.5},
		InitialParams:   model.InitParams(nil),
		Iterations:      iters,
		SampleCount:     data.N(),
		IterTimeout:     5 * time.Second,
		LossEvery:       4,
		LossFn:          func(p []float64) (float64, error) { return hetgc.MeanLoss(model, p, data) },
		Alpha:           0.7,
		DriftThreshold:  0.5,
		MinObservations: 2,
		CooldownIters:   2,
		Seed:            1,
	}

	var wg sync.WaitGroup
	res, err := hetgc.RunSharded(cfg, "127.0.0.1:0", 5*time.Second, func(root *hetgc.ShardedRoot) {
		plan := root.Plan()
		addrs := root.GroupAddrs()
		fmt.Printf("hierarchy: %d workers -> %d groups -> fan-in-%d tree (depth %d) -> root\n",
			m, plan.NumGroups(), plan.Tree.FanIn, plan.Tree.Depth())
		for g, grp := range plan.Groups {
			fmt.Printf("  group %d: workers %v own partitions %v at %s\n",
				g, grp.Workers, grp.Parts, addrs[g])
		}
		for g, grp := range plan.Groups {
			for idx := 0; idx < len(grp.Workers); idx++ {
				g, idx := g, idx
				w, err := hetgc.DialElasticWorker(addrs[g], hetgc.ElasticWorkerConfig{
					Model:         model,
					PartitionData: func(p int) (*hetgc.Dataset, error) { return parts[p], nil },
					DelayPerPartition: func(iter int) time.Duration {
						if g == 0 && idx == 0 && iter >= slowAt {
							return slowDelay
						}
						return fastDelay
					},
				})
				if err != nil {
					log.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = w.Run()
				}()
			}
		}
	})
	if err != nil {
		return err
	}
	wg.Wait()

	fmt.Printf("\ntrained %d iterations, mean %.1fms/iter; %d group sums reduced per iteration\n",
		len(res.IterTimes), res.Summary.Mean*1000, len(res.Groups))
	for _, gs := range res.Groups {
		final := gs.Epochs[len(gs.Epochs)-1]
		fmt.Printf("group %d: final epoch %d, %d replans, %d stale-epoch uploads fenced\n",
			gs.Group, final, len(gs.Replans), gs.StaleEpochRejected)
		for _, ev := range gs.Replans {
			if ev.Reason != "initial" {
				fmt.Printf("  iter %2d  epoch %d  %-5s (%d workers)\n", ev.Iter, ev.Epoch, ev.Reason, ev.Members)
			}
		}
	}
	if len(res.Curve.Points) > 0 {
		first := res.Curve.Points[0].Y
		last := res.Curve.Points[len(res.Curve.Points)-1].Y
		fmt.Printf("loss %.4f -> %.4f\n", first, last)
	}

	// The deterministic co-simulation: flat vs sharded at 200 workers.
	fmt.Println("\nco-simulation, 200 workers (2ms/upload ingest, 5ms/hop):")
	rates := make([]float64, 200)
	for i := range rates {
		rates[i] = 100
	}
	simCfg := hetgc.ElasticSimConfig{
		K: 400, S: 1, GroupSize: 10, FanIn: 4,
		InitialRates: rates, Estimates: rates, Iterations: 25,
		IngestSeconds: 0.002, HopSeconds: 0.005, Seed: 7,
	}
	sh, err := hetgc.SimulateElastic(simCfg)
	if err != nil {
		return err
	}
	flatCfg := simCfg
	flatCfg.GroupSize = 200
	fl, err := hetgc.SimulateElastic(flatCfg)
	if err != nil {
		return err
	}
	fmt.Printf("flat %0.1fms/iter vs sharded %0.1fms/iter: %.1fx faster\n",
		fl.Summary.Mean*1000, sh.Summary.Mean*1000, fl.Summary.Mean/sh.Summary.Mean)
	return nil
}
