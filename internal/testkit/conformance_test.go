// Conformance: the flat elastic master must survive the shared adversarial
// scenario table (testkit.Scenarios) — the same table the sharded runtime
// is held to (internal/shard/conformance_test.go) — so both runtimes are
// verified against one set of churn, fencing and fault-injection
// invariants. The flat run lives here, beside the harness, so the scripted
// workers and scenario checks are exercised by their own package's test
// binary.
package testkit_test

import (
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/testkit"
)

// flatCluster adapts runtime.ElasticMaster to the conformance suite.
type flatCluster struct {
	sc *testkit.Scenario
	ma *runtime.ElasticMaster
}

func TestConformanceFlat(t *testing.T) {
	testkit.RunConformance(t, func(t *testing.T, sc *testkit.Scenario, fx *testkit.Fixture) testkit.Cluster {
		cfg := runtime.ElasticConfig{
			K: sc.K, S: sc.S,
			Model:           fx.Model,
			Optimizer:       &ml.SGD{LR: 0.5},
			InitialParams:   fx.Model.InitParams(nil),
			Iterations:      sc.Iters,
			SampleCount:     fx.Data.N(),
			IterTimeout:     sc.IterTimeout,
			MinWorkers:      sc.Workers,
			Alpha:           sc.Alpha,
			DriftThreshold:  sc.DriftThreshold,
			MinObservations: sc.MinObservations,
			CooldownIters:   sc.CooldownIters,
			InitialRate:     sc.InitialRate,
			Seed:            1,
		}
		ma, err := runtime.NewElasticMaster(cfg, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return &flatCluster{sc: sc, ma: ma}
	})
}

func (c *flatCluster) Addrs() []string {
	addrs := make([]string, c.sc.Workers)
	for i := range addrs {
		addrs[i] = c.ma.Addr()
	}
	return addrs
}

func (c *flatCluster) Run() (*testkit.Outcome, error) {
	if err := c.ma.WaitForWorkers(10 * time.Second); err != nil {
		return nil, err
	}
	res, err := c.ma.Run()
	if err != nil {
		return nil, err
	}
	out := &testkit.Outcome{
		Iters:              len(res.IterTimes),
		StaleEpochRejected: res.Groups[0].StaleEpochRejected,
		StaleConnRejected:  res.Groups[0].StaleConnRejected,
		StragglersSkipped:  res.Groups[0].StragglersSkipped,
		MalformedSkipped:   res.Groups[0].MalformedSkipped,
		TelemetrySamples:   res.Groups[0].TelemetrySamples,
		Joins:              res.Groups[0].Joins,
		Deaths:             res.Groups[0].Deaths,
		Params:             res.Params,
	}
	if len(res.Groups[0].Epochs) > 0 {
		out.FinalEpoch = res.Groups[0].Epochs[len(res.Groups[0].Epochs)-1]
	}
	return out, nil
}

func (c *flatCluster) Close() { c.ma.Close() }
