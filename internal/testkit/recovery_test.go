// Recovery conformance for the flat runtime: kill the elastic master mid-
// training, resume from the checkpoint directory, and hold it to the shared
// recovery invariants (testkit.RecoveryScenarios) — the same table the
// sharded hierarchy is held to in internal/shard/recovery_test.go.
package testkit_test

import (
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/testkit"
)

type recoveryFlat struct {
	sc *testkit.RecoveryScenario
	ma *runtime.ElasticMaster
}

func TestRecoveryConformanceFlat(t *testing.T) {
	testkit.RunRecoveryConformance(t, func(sc *testkit.RecoveryScenario, fx *testkit.Fixture, dir string, resume bool) (testkit.Cluster, error) {
		cfg := runtime.ElasticConfig{
			K: sc.K, S: sc.S,
			Model:         fx.Model,
			Optimizer:     &ml.SGD{LR: 0.5, Momentum: 0.5},
			InitialParams: fx.Model.InitParams(nil),
			Iterations:    sc.Iters,
			SampleCount:   fx.Data.N(),
			IterTimeout:   sc.IterTimeout,
			MinWorkers:    sc.Workers,
			// Churn-only control plane: every post-resume epoch bump is
			// attributable to the crash recovery, not drift.
			DriftThreshold:   2.0,
			CooldownIters:    1 << 20,
			InitialRate:      sc.InitialRate,
			Seed:             1,
			DurabilityConfig: clustercfg.DurabilityConfig{CheckpointDir: dir, SnapshotEvery: sc.SnapshotEvery, Resume: resume},
		}
		ma, err := runtime.NewElasticMaster(cfg, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		return &recoveryFlat{sc: sc, ma: ma}, nil
	})
}

func (c *recoveryFlat) Addrs() []string {
	addrs := make([]string, c.sc.Workers)
	for i := range addrs {
		addrs[i] = c.ma.Addr()
	}
	return addrs
}

func (c *recoveryFlat) Run() (*testkit.Outcome, error) {
	if err := c.ma.WaitForWorkers(20 * time.Second); err != nil {
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

func (c *recoveryFlat) Close() { c.ma.Close() }
