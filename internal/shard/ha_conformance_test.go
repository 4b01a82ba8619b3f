// HA conformance for the sharded hierarchy: the root holds the lease, group
// 0 is served by an out-of-process GroupRunner that outlives every root,
// and the shared failover scenarios (testkit.RunHAConformance) kill, wedge
// and depose roots around it — the same table the flat runtime is held to
// in internal/testkit/ha_conformance_test.go. This is the only runtime with
// independently restartable group masters, so it also runs the
// group-master-restart-and-readoption scenario.
package shard_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/testkit"
)

// haShardEnv owns the external group master. Runners deliberately outlive
// the clusters that started them — surviving a root's death is the property
// under test — so they live here, not in the cluster adapter.
type haShardEnv struct {
	mu     sync.Mutex
	cfg    shard.GroupRunnerConfig
	runner *shard.GroupRunner
}

func (e *haShardEnv) set(cfg shard.GroupRunnerConfig, rn *shard.GroupRunner) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg, e.runner = cfg, rn
}

func (e *haShardEnv) addr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runner.Addr()
}

func (e *haShardEnv) stopRunner() {
	e.mu.Lock()
	rn := e.runner
	e.runner = nil
	e.mu.Unlock()
	if rn != nil {
		rn.Stop()
	}
}

// restart kills the runner cold and rebuilds it from its own journal at a
// fresh address.
func (e *haShardEnv) restart() error {
	e.mu.Lock()
	rn, cfg := e.runner, e.cfg
	e.mu.Unlock()
	if rn == nil {
		return fmt.Errorf("no runner to restart")
	}
	rn.Stop()
	cfg.ResumeJournal = true
	next, err := shard.StartGroup(cfg)
	if err != nil {
		return err
	}
	e.set(cfg, next)
	return nil
}

type haShard struct {
	sc   *testkit.HAScenario
	root *shard.Root
	env  *haShardEnv
}

func TestHAConformanceSharded(t *testing.T) {
	env := &haShardEnv{}
	t.Cleanup(env.stopRunner)
	testkit.RunHAConformance(t, true, func(sc *testkit.HAScenario, fx *testkit.Fixture, dir string, resume bool, holder string) (testkit.HACluster, error) {
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
			ChunkLen:      4,
			// Churn-only control plane, as in the recovery conformance run.
			DriftThreshold:   2.0,
			CooldownIters:    1 << 20,
			InitialRate:      sc.InitialRate,
			Seed:             1,
			DurabilityConfig: clustercfg.DurabilityConfig{CheckpointDir: dir, SnapshotEvery: sc.SnapshotEvery, Resume: resume},
			HAConfig:         clustercfg.HAConfig{LeaseTTL: sc.LeaseTTL, Holder: holder},
			ExternalGroups:   []int{0},
		}
		root, err := shard.NewRoot(cfg, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if !resume {
			// A fresh scenario: retire any runner left over from the
			// previous one, then start group 0's master with its own
			// journal, discovering this root (and every successor) through
			// the lease token in dir.
			env.stopRunner()
			rcfg := shard.GroupRunnerConfig{
				Config: cfg, Group: 0, WorkerAddr: "127.0.0.1:0",
				RootDir: dir, JournalDir: dir + "-g0",
			}
			rn, err := shard.StartGroup(rcfg)
			if err != nil {
				root.Close()
				return nil, err
			}
			env.set(rcfg, rn)
		}
		return &haShard{sc: sc, root: root, env: env}, nil
	})
}

func (c *haShard) Addrs() []string {
	groupAddrs := c.root.GroupAddrs()
	var addrs []string
	for g, grp := range c.root.Plan().Groups {
		addr := groupAddrs[g]
		if addr == "" { // external group: workers dial the runner
			addr = c.env.addr()
		}
		for i := 0; i < len(grp.Workers); i++ {
			addrs = append(addrs, addr)
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
		Iters:         len(res.IterTimes),
		Params:        res.Params,
		FencedUploads: res.FencedSums,
		Readoptions:   res.Readoptions,
	}
	for _, gs := range res.Groups {
		out.FencedUploads += gs.FencedRejected
	}
	return out, nil
}

func (c *haShard) RootGen() int         { return c.root.RootGen() }
func (c *haShard) SuspendLeaseRenewal() { c.root.SuspendLeaseRenewal() }
func (c *haShard) Close()               { c.root.Close() }
func (c *haShard) RestartGroup(g int) error {
	if g != 0 {
		return fmt.Errorf("group %d is not external", g)
	}
	return c.env.restart()
}
