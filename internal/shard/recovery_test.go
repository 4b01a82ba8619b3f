// Recovery conformance for the sharded hierarchy: kill the root (and with
// it every group master) mid-training, resume from the checkpoint
// directory, and hold it to the shared recovery invariants
// (testkit.RecoveryScenarios) — the same table the flat runtime is held to.
package shard_test

import (
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/testkit"
)

type recoveryShard struct {
	sc   *testkit.RecoveryScenario
	root *shard.Root
}

func TestRecoveryConformanceSharded(t *testing.T) {
	testkit.RunRecoveryConformance(t, func(sc *testkit.RecoveryScenario, fx *testkit.Fixture, dir string, resume bool) (testkit.Cluster, error) {
		thr := make([]float64, sc.Workers)
		for i := range thr {
			thr[i] = sc.InitialRate
		}
		cfg := shard.Config{
			K: sc.K, S: sc.S,
			GroupSize:     sc.GroupSize,
			FanIn:         2,
			Throughputs:   thr,
			Model:         fx.Model,
			Optimizer:     &ml.SGD{LR: 0.5, Momentum: 0.5},
			InitialParams: fx.Model.InitParams(nil),
			Iterations:    sc.Iters,
			SampleCount:   fx.Data.N(),
			IterTimeout:   sc.IterTimeout,
			// Churn-only control plane, as in the flat recovery run.
			DriftThreshold:   2.0,
			CooldownIters:    1 << 20,
			InitialRate:      sc.InitialRate,
			Seed:             1,
			DurabilityConfig: clustercfg.DurabilityConfig{CheckpointDir: dir, SnapshotEvery: sc.SnapshotEvery, Resume: resume},
		}
		root, err := shard.NewRoot(cfg, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		return &recoveryShard{sc: sc, root: root}, nil
	})
}

func (c *recoveryShard) Addrs() []string {
	groupAddrs := c.root.GroupAddrs()
	var addrs []string
	for g, grp := range c.root.Plan().Groups {
		for i := 0; i < len(grp.Workers); i++ {
			addrs = append(addrs, groupAddrs[g])
		}
	}
	return addrs
}

func (c *recoveryShard) Run() (*testkit.Outcome, error) {
	if err := c.root.WaitForWorkers(20 * time.Second); err != nil {
		return nil, err
	}
	res, err := c.root.Run()
	if err != nil {
		return nil, err
	}
	out := &testkit.Outcome{
		Iters:  len(res.IterTimes),
		Params: res.Params,
	}
	for _, gs := range res.Groups {
		out.StaleEpochRejected += gs.StaleEpochRejected
		out.StaleConnRejected += gs.StaleConnRejected
		out.StragglersSkipped += gs.StragglersSkipped
		out.MalformedSkipped += gs.MalformedSkipped
		out.TelemetrySamples += gs.TelemetrySamples
		out.Joins += gs.Joins
		out.Deaths += gs.Deaths
		if n := len(gs.Epochs); n > 0 && gs.Epochs[n-1] > out.FinalEpoch {
			out.FinalEpoch = gs.Epochs[n-1]
		}
	}
	return out, nil
}

func (c *recoveryShard) Close() { c.root.Close() }
