// HA conformance for the flat runtime: the elastic master holds the root
// lease, and the shared failover scenarios (testkit.RunHAConformance) kill,
// wedge and depose it — the same table the sharded hierarchy is held to in
// internal/shard/ha_conformance_test.go. The flat runtime has no external
// group masters, so the group-restart scenario is skipped.
package testkit_test

import (
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/testkit"
)

type haFlat struct {
	sc *testkit.HAScenario
	ma *runtime.ElasticMaster
}

func TestHAConformanceFlat(t *testing.T) {
	testkit.RunHAConformance(t, func(sc *testkit.HAScenario, fx *testkit.Fixture, dir string, resume bool, holder string) (testkit.HACluster, error) {
		cfg := runtime.ElasticConfig{
			K: sc.K, S: sc.S,
			Model:         fx.Model,
			Optimizer:     &ml.SGD{LR: 0.5, Momentum: 0.5},
			InitialParams: fx.Model.InitParams(nil),
			Iterations:    sc.Iters,
			SampleCount:   fx.Data.N(),
			IterTimeout:   sc.IterTimeout,
			MinWorkers:    sc.Workers,
			// Churn-only control plane: failover scenarios script their own
			// disruptions and must not race the drift trigger.
			DriftThreshold:   2.0,
			CooldownIters:    1 << 20,
			InitialRate:      sc.InitialRate,
			Seed:             1,
			DurabilityConfig: clustercfg.DurabilityConfig{CheckpointDir: dir, SnapshotEvery: sc.SnapshotEvery, Resume: resume},
			HAConfig:         clustercfg.HAConfig{LeaseTTL: sc.LeaseTTL, Holder: holder},
		}
		ma, err := runtime.NewElasticMaster(cfg, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		return &haFlat{sc: sc, ma: ma}, nil
	})
}

func (c *haFlat) Addrs() []string {
	addrs := make([]string, c.sc.Workers)
	for i := range addrs {
		addrs[i] = c.ma.Addr()
	}
	return addrs
}

func (c *haFlat) Run() (*testkit.Outcome, error) {
	if err := c.ma.WaitForWorkers(20 * time.Second); err != nil {
		return nil, err
	}
	res, err := c.ma.Run()
	if err != nil {
		return nil, err
	}
	return &testkit.Outcome{
		Iters:         len(res.IterTimes),
		Params:        res.Params,
		FencedUploads: res.Groups[0].FencedRejected,
	}, nil
}

func (c *haFlat) RootGen() int         { return c.ma.RootGen() }
func (c *haFlat) SuspendLeaseRenewal() { c.ma.SuspendLeaseRenewal() }
func (c *haFlat) Close()               { c.ma.Close() }
