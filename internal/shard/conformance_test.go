// Conformance: the sharded hierarchy must survive the shared adversarial
// scenario table (testkit.Scenarios) — the same table the flat elastic
// master is held to. Worker slots are addressed group-by-group, so each
// scenario's scripted faults land inside one coding group and the
// invariants (migration, fencing, identity resumption) are enforced on the
// group masters through the same roster engine the flat runtime uses.
package shard_test

import (
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/testkit"
)

// shardCluster adapts shard.Root to the conformance suite.
type shardCluster struct {
	sc   *testkit.Scenario
	root *shard.Root
}

func TestConformanceSharded(t *testing.T) {
	testkit.RunConformance(t, func(t *testing.T, sc *testkit.Scenario, fx *testkit.Fixture) testkit.Cluster {
		thr := make([]float64, sc.Workers)
		for i := range thr {
			thr[i] = sc.InitialRate
		}
		cfg := shard.Config{
			K: sc.K, S: sc.S,
			GroupSize:       sc.GroupSize,
			FanIn:           2,
			Throughputs:     thr,
			Model:           fx.Model,
			Optimizer:       &ml.SGD{LR: 0.5},
			InitialParams:   fx.Model.InitParams(nil),
			Iterations:      sc.Iters,
			SampleCount:     fx.Data.N(),
			IterTimeout:     sc.IterTimeout,
			Alpha:           sc.Alpha,
			DriftThreshold:  sc.DriftThreshold,
			MinObservations: sc.MinObservations,
			CooldownIters:   sc.CooldownIters,
			InitialRate:     sc.InitialRate,
			Seed:            1,
		}
		root, err := shard.NewRoot(cfg, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return &shardCluster{sc: sc, root: root}
	})
}

// Addrs orders worker slots group-by-group, so consecutive scenario slots
// land in the same coding group.
func (c *shardCluster) Addrs() []string {
	groupAddrs := c.root.GroupAddrs()
	var addrs []string
	for g, grp := range c.root.Plan().Groups {
		for i := 0; i < len(grp.Workers); i++ {
			addrs = append(addrs, groupAddrs[g])
		}
	}
	return addrs
}

func (c *shardCluster) Run() (*testkit.Outcome, error) {
	if err := c.root.WaitForWorkers(10 * time.Second); err != nil {
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

func (c *shardCluster) Close() { c.root.Close() }
