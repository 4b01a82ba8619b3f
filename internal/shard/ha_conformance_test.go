// HA conformance for the sharded hierarchy: the root holds the lease and
// hosts both coding groups, and the shared failover scenarios
// (testkit.RunHAConformance) kill, wedge and depose roots — the same table
// the flat runtime is held to in internal/testkit/ha_conformance_test.go.
package shard_test

import (
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/testkit"
)

type haShard struct {
	sc   *testkit.HAScenario
	root *shard.Root
}

func TestHAConformanceSharded(t *testing.T) {
	testkit.RunHAConformance(t, func(sc *testkit.HAScenario, fx *testkit.Fixture, dir string, resume bool, holder string) (testkit.HACluster, error) {
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
			// Churn-only control plane, as in the recovery conformance run.
			DriftThreshold:   2.0,
			CooldownIters:    1 << 20,
			InitialRate:      sc.InitialRate,
			Seed:             1,
			DurabilityConfig: clustercfg.DurabilityConfig{CheckpointDir: dir, SnapshotEvery: sc.SnapshotEvery, Resume: resume},
			HAConfig:         clustercfg.HAConfig{LeaseTTL: sc.LeaseTTL, Holder: holder},
		}
		root, err := shard.NewRoot(cfg, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		return &haShard{sc: sc, root: root}, nil
	})
}

func (c *haShard) Addrs() []string {
	groupAddrs := c.root.GroupAddrs()
	var addrs []string
	for g, grp := range c.root.Plan().Groups {
		for i := 0; i < len(grp.Workers); i++ {
			addrs = append(addrs, groupAddrs[g])
		}
	}
	return addrs
}

func (c *haShard) Run() (*testkit.Outcome, error) {
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
		out.FencedUploads += gs.FencedRejected
	}
	return out, nil
}

func (c *haShard) RootGen() int         { return c.root.RootGen() }
func (c *haShard) SuspendLeaseRenewal() { c.root.SuspendLeaseRenewal() }
func (c *haShard) Close()               { c.root.Close() }
