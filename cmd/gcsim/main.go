// Command gcsim regenerates the paper's evaluation tables and figures on the
// simulated clusters. Each -exp value corresponds to one table or figure:
//
//	gcsim -exp table2                 # Table II cluster configurations
//	gcsim -exp fig2a                  # Fig. 2a delay sweep, Cluster-A, s=1
//	gcsim -exp fig2b                  # Fig. 2b delay sweep, Cluster-A, s=2
//	gcsim -exp fig3                   # Fig. 3 clusters B/C/D iteration times
//	gcsim -exp fig4                   # Fig. 4 loss-vs-time incl. SSP
//	gcsim -exp fig5                   # Fig. 5 computing-resource usage
//	gcsim -exp ablation-misest        # group-based vs heter under bad estimates
//	gcsim -exp ablation-s             # replication-factor sweep
//	gcsim -exp churn                  # elastic control loop under seeded churn
//	gcsim -exp sharded                # hierarchical group-sharded runtime vs flat at 200 workers
//	gcsim -exp all                    # everything above
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"github.com/hetgc/hetgc"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gcsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gcsim", flag.ContinueOnError)
	var (
		exp   = fs.String("exp", "all", "experiment: table2, fig2a, fig2b, fig3, fig4, fig5, ablation-misest, ablation-s, churn, sharded, all")
		iters = fs.Int("iters", 100, "iterations per simulation cell")
		seed  = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	run := func(name string, f func() error) error {
		fmt.Printf("=== %s ===\n", name)
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println()
		return nil
	}
	all := *exp == "all"
	type entry struct {
		name string
		f    func() error
	}
	entries := []entry{
		{"table2", func() error { return table2() }},
		{"fig2a", func() error { return fig2(1, *iters, *seed) }},
		{"fig2b", func() error { return fig2(2, *iters, *seed) }},
		{"fig3", func() error { return fig3(*iters, *seed) }},
		{"fig4", func() error { return fig4(*iters, *seed) }},
		{"fig5", func() error { return fig5(*iters, *seed) }},
		{"ablation-misest", func() error { return misest(*iters, *seed) }},
		{"ablation-s", func() error { return replication(*iters, *seed) }},
		{"churn", func() error { return churn(*iters, *seed) }},
		{"sharded", func() error { return sharded(*iters, *seed) }},
	}
	matched := false
	for _, e := range entries {
		if all || e.name == *exp {
			matched = true
			if err := run(e.name, e.f); err != nil {
				return err
			}
		}
	}
	if !matched {
		names := make([]string, 0, len(entries)+1)
		for _, e := range entries {
			names = append(names, e.name)
		}
		names = append(names, "all")
		return fmt.Errorf("unknown experiment %q (valid: %s)", *exp, strings.Join(names, ", "))
	}
	return nil
}

func table2() error {
	fmt.Println("Table II: cluster configurations (machines per vCPU class)")
	fmt.Print(hetgc.Table2().String())
	return nil
}

func fig2(s, iters int, seed int64) error {
	fmt.Printf("Fig. 2%c: avg time per iteration (s) on Cluster-A, s=%d, injected delay sweep\n",
		'a'+rune(s-1), s)
	rows, err := hetgc.RunFig2Sweep(hetgc.DelaySweepConfig{
		Cluster:        hetgc.ClusterA(),
		S:              s,
		Delays:         []float64{0, 2, 4, 6, 8, math.Inf(1)},
		Iterations:     iters,
		FluctuationStd: 0.05,
		Seed:           seed,
	})
	if err != nil {
		return err
	}
	fmt.Print(hetgc.DelayTable(rows).String())
	sp, err := hetgc.SpeedupVsCyclic(rows[len(rows)-1])
	if err != nil {
		return err
	}
	fmt.Printf("headline: heter-aware speedup over cyclic at fault = %.2fx (paper: up to 3x)\n", sp)
	return nil
}

func fig3(iters int, seed int64) error {
	fmt.Println("Fig. 3: avg time per iteration (s) on Clusters B/C/D under transient interference")
	rows, err := hetgc.RunFig3Clusters(hetgc.ClusterSweepConfig{
		Clusters:       []*hetgc.Cluster{hetgc.ClusterB(), hetgc.ClusterC(), hetgc.ClusterD()},
		S:              1,
		Iterations:     iters,
		TransientProb:  0.02,
		TransientMean:  2,
		FluctuationStd: 0.05,
		Seed:           seed,
	})
	if err != nil {
		return err
	}
	fmt.Print(hetgc.ClusterTable(rows).String())
	return nil
}

func fig4(iters int, seed int64) error {
	fmt.Println("Fig. 4: training loss vs simulated wall-clock on Cluster-C (softmax on synthetic mixture)")
	lc, err := hetgc.RunFig4LossCurves(hetgc.LossCurveConfig{
		Cluster:             hetgc.ClusterC(),
		S:                   1,
		Iterations:          iters,
		SamplesPerPartition: 10,
		TransientProb:       0.02,
		TransientMean:       2,
		Seed:                seed,
	})
	if err != nil {
		return err
	}
	fmt.Print(lc.LossTable(8).String())
	fmt.Println()
	fmt.Print(hetgc.AsciiPlot(lc.Curves, 72, 16))
	fmt.Println("final loss per scheme:")
	for _, c := range lc.Curves {
		fmt.Printf("  %-12s %.4f\n", c.Name, lc.FinalLoss[c.Name])
	}
	return nil
}

func fig5(iters int, seed int64) error {
	fmt.Println("Fig. 5: computing-resource usage per scheme")
	rows, err := hetgc.RunFig3Clusters(hetgc.ClusterSweepConfig{
		Clusters:       []*hetgc.Cluster{hetgc.ClusterA(), hetgc.ClusterB(), hetgc.ClusterC()},
		S:              1,
		Iterations:     iters,
		TransientProb:  0.02,
		TransientMean:  2,
		FluctuationStd: 0.05,
		CommOverhead:   0.3,
		Seed:           seed,
	})
	if err != nil {
		return err
	}
	fmt.Print(hetgc.UsageTable(rows).String())
	return nil
}

func misest(iters int, seed int64) error {
	fmt.Println("Ablation: throughput mis-estimation (heter-aware vs group-based, Cluster-A, s=1)")
	rows, err := hetgc.RunMisestimation(hetgc.MisestimationConfig{
		Cluster:    hetgc.ClusterA(),
		S:          1,
		Epsilons:   []float64{0, 0.1, 0.2, 0.4, 0.6},
		Iterations: iters,
		Trials:     5,
		Seed:       seed,
	})
	if err != nil {
		return err
	}
	fmt.Print(hetgc.MisestimationTable(rows).String())
	return nil
}

func churn(iters int, seed int64) error {
	fmt.Println("Elastic control loop under seeded churn: 2 of 4 workers slow 10x, a 5th joins, one dies and rejoins")
	if iters < 24 {
		iters = 24 // the schedule needs room for every event
	}
	cfg := hetgc.ElasticSimConfig{
		K: 8, S: 1,
		InitialRates: []float64{500, 500, 500, 500},
		Events: []hetgc.ChurnEvent{
			{Iter: iters / 4, Kind: hetgc.ChurnSpeedStep, Member: 1, Factor: 0.1},
			{Iter: iters / 4, Kind: hetgc.ChurnSpeedStep, Member: 3, Factor: 0.1},
			{Iter: iters / 3, Kind: hetgc.ChurnJoin, Rate: 500},
			{Iter: iters / 2, Kind: hetgc.ChurnKill, Member: 3},
			{Iter: iters * 3 / 4, Kind: hetgc.ChurnRejoin, Member: 3, Rate: 500},
		},
		Iterations:      iters,
		Alpha:           0.5,
		DriftThreshold:  0.5,
		MinObservations: 2,
		CooldownIters:   3,
		Seed:            seed,
	}
	res, err := hetgc.SimulateElastic(cfg)
	if err != nil {
		return err
	}
	// Determinism is part of the contract: a second run must be identical.
	res2, err := hetgc.SimulateElastic(cfg)
	if err != nil {
		return err
	}
	identical := len(res.Times) == len(res2.Times)
	for i := range res.Times {
		if !identical || res.Times[i] != res2.Times[i] || res.Epochs[i][0] != res2.Epochs[i][0] {
			identical = false
			break
		}
	}
	fmt.Println("migration timeline:")
	for _, ev := range res.Replans {
		fmt.Printf("  iter %3d  epoch %2d  %-7s  %d workers  (imbalance %.2f)\n",
			ev.Iter, ev.Epoch, ev.Reason, ev.Members, ev.Imbalance)
	}
	fmt.Printf("mean iteration %.2fms (min %.2f, max %.2f), final epoch %d\n",
		res.Summary.Mean*1000, res.Summary.Min*1000, res.Summary.Max*1000,
		res.Epochs[len(res.Epochs)-1][0])
	fmt.Printf("replay bit-identical: %v\n", identical)
	if !identical {
		return fmt.Errorf("churn simulation is not deterministic")
	}
	return nil
}

func sharded(iters int, seed int64) error {
	fmt.Println("Hierarchical group-sharded runtime vs flat single master, 200 workers")
	const m = 200
	if iters > 50 {
		// The comparison stabilises quickly; keep -exp all fast.
		fmt.Printf("(clamping -iters %d to 50 for the sharded comparison)\n", iters)
		iters = 50
	}
	rates := make([]float64, m)
	for i := range rates {
		rates[i] = 100
	}
	base := hetgc.ElasticSimConfig{
		K: 2 * m, S: 1, FanIn: 4,
		InitialRates: rates,
		Estimates:    rates,
		Iterations:   iters,
		// 2ms to ingest one gradient upload, 5ms per reduction-tree hop:
		// the flat master serialises behind 200 uploads, each group master
		// ingests ~10 in parallel and ships one coalesced batch upward.
		IngestSeconds: 0.002,
		HopSeconds:    0.005,
		// A slow third of the fleet plus a mid-run slowdown exercises the
		// group-local control planes.
		Events: []hetgc.ChurnEvent{
			{Iter: iters / 3, Kind: hetgc.ChurnSpeedStep, Member: 1, Factor: 0.25},
			{Iter: iters / 3, Kind: hetgc.ChurnSpeedStep, Member: 2, Factor: 0.25},
		},
		Alpha:           0.5,
		DriftThreshold:  0.5,
		MinObservations: 2,
		CooldownIters:   3,
		Seed:            seed,
	}
	shardedCfg := base
	shardedCfg.GroupSize = 10
	flatCfg := base
	flatCfg.GroupSize = m // one group = the flat runtime, same code path

	sh, err := hetgc.SimulateElastic(shardedCfg)
	if err != nil {
		return err
	}
	fl, err := hetgc.SimulateElastic(flatCfg)
	if err != nil {
		return err
	}
	fmt.Printf("flat:    1 master, %d uploads/iter               mean %.1fms/iter\n",
		m, fl.Summary.Mean*1000)
	fmt.Printf("sharded: %d groups, tree depth %d (fan-in 4)     mean %.1fms/iter  (%.1fx faster)\n",
		sh.Groups, sh.Depth, sh.Summary.Mean*1000, fl.Summary.Mean/sh.Summary.Mean)
	fmt.Println("group-local migration timeline:")
	for _, ev := range sh.Replans {
		if ev.Reason == "initial" {
			continue
		}
		fmt.Printf("  iter %3d  group %2d  epoch %2d  %-7s  %d workers\n",
			ev.Iter, ev.Group, ev.Epoch, ev.Reason, ev.Members)
	}
	// Determinism is part of the contract: a second run must be identical.
	sh2, err := hetgc.SimulateElastic(shardedCfg)
	if err != nil {
		return err
	}
	identical := len(sh.Times) == len(sh2.Times)
	for i := 0; identical && i < len(sh.Times); i++ {
		if sh.Times[i] != sh2.Times[i] {
			identical = false
		}
	}
	fmt.Printf("replay bit-identical: %v\n", identical)
	if !identical {
		return fmt.Errorf("sharded simulation is not deterministic")
	}
	if fl.Summary.Mean < 2*sh.Summary.Mean {
		return fmt.Errorf("sharded speedup below 2x: flat %.4fs vs sharded %.4fs", fl.Summary.Mean, sh.Summary.Mean)
	}
	return nil
}

func replication(iters int, seed int64) error {
	fmt.Println("Ablation: replication factor s sweep (avg iteration time, Cluster-A)")
	rows, err := hetgc.RunReplicationSweep(hetgc.ReplicationSweepConfig{
		Cluster:    hetgc.ClusterA(),
		SValues:    []int{1, 2, 3},
		Delay:      5,
		Iterations: iters,
		Seed:       seed,
	})
	if err != nil {
		return err
	}
	fmt.Print(hetgc.ReplicationTable(rows).String())
	return nil
}
