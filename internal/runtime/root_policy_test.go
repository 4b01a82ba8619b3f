package runtime

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/estimate"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/ml"
)

// These tests pin the root's policy points: what a failed run tells its
// workers, which schemes a root admits, how a resume prices members it knows
// only from the journal, and the sentinels commands and tests match with
// errors.Is.

// failingOptimizer steps like SGD until iteration failAt, then fails: a run
// that dies for a reason of its own, with every worker healthy and no lease
// lost.
type failingOptimizer struct {
	ml.SGD
	steps, failAt int
}

var errStepFailed = errors.New("step failed on purpose")

func (o *failingOptimizer) Step(params []float64, g grad.Gradient) error {
	if o.steps++; o.steps > o.failAt {
		return errStepFailed
	}
	return o.SGD.Step(params, g)
}

// shapes are the root shapes every policy point holds for: the flat
// cluster (one group, no planned workers) and a root of two groups of three
// planned workers each.
var shapes = []struct {
	name        string
	throughputs []float64
}{
	{"flat", nil},
	{"groups=2", []float64{1, 1, 1, 1, 1, 1}},
}

// shaped lays cfg out as shape: planned workers in groups of three.
func shaped(cfg ElasticConfig, throughputs []float64) ElasticConfig {
	cfg.Throughputs, cfg.GroupSize, cfg.FanIn = throughputs, 3, 2
	return cfg
}

// dialAddrs is the address each of n workers dials: a root with planned
// workers hands out its group addresses, a flat one its own.
func dialAddrs(ma *ElasticMaster, n int) []string {
	var addrs []string
	for g, grp := range ma.Plan().Groups {
		for range grp.Workers {
			addrs = append(addrs, ma.GroupAddrs()[g])
		}
	}
	for len(addrs) < n {
		addrs = append(addrs, ma.Addr())
	}
	return addrs
}

// TestFailedRunShutsWorkersDown: a run that fails without being fenced
// dismisses its workers with MsgShutdown — each worker's Run returns nil —
// instead of leaving them on a dead connection.
func TestFailedRunShutsWorkersDown(t *testing.T) {
	const k, s, workers = 4, 1, 6
	f := newElasticFixture(t, k)
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := shaped(f.masterConfig(k, s, 20), sh.throughputs)
			if sh.throughputs == nil {
				cfg.MinWorkers = workers
			}
			cfg.Optimizer = &failingOptimizer{SGD: ml.SGD{LR: 0.5}, failAt: 3}
			master, err := NewElasticMaster(cfg, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer master.Close()
			runErrs := make([]error, workers)
			var wg sync.WaitGroup
			for i, addr := range dialAddrs(master, workers) {
				w, err := DialElasticWorker(addr, ElasticWorkerConfig{
					Model:         f.model,
					PartitionData: func(p int) (*ml.Dataset, error) { return f.parts[p], nil },
				})
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					runErrs[i] = w.Run()
				}(i)
			}
			if err := master.WaitForWorkers(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if _, err := master.Run(); !errors.Is(err, errStepFailed) {
				t.Fatalf("run err = %v, want the optimizer's failure", err)
			}
			wg.Wait()
			for i, err := range runErrs {
				if err != nil {
					t.Errorf("worker %d: Run = %v, want nil (a MsgShutdown from the failed root)", i, err)
				}
			}
		})
	}
}

// TestFixedShapeSchemeAccepted: a root of one group plans every scheme,
// fixed-shape ones included, with or without planned workers. A root of
// more groups refuses them: a capacity-split group does not hold one member
// per partition.
func TestFixedShapeSchemeAccepted(t *testing.T) {
	f := newElasticFixture(t, 4)
	for _, tc := range []struct {
		name        string
		throughputs []float64
		refused     bool
	}{
		{"flat", nil, false},
		{"one planned group", []float64{1, 1, 1}, false},
		{"groups=2", []float64{1, 1, 1, 1, 1, 1}, true},
	} {
		for _, kind := range []core.Kind{core.Naive, core.Cyclic, core.FractionalRepetition} {
			cfg := f.masterConfig(4, 1, 1)
			if tc.throughputs != nil {
				cfg = shaped(cfg, tc.throughputs)
			}
			cfg.Scheme = kind
			master, err := NewElasticMaster(cfg, "127.0.0.1:0")
			switch {
			case tc.refused && !errors.Is(err, ErrBadConfig):
				t.Errorf("%s %v: err = %v, want ErrBadConfig", tc.name, kind, err)
			case !tc.refused && err != nil:
				t.Errorf("%s %v: %v", tc.name, kind, err)
			}
			if err == nil {
				master.Close()
			}
		}
	}
}

// TestResumePlansJournalOnlyMembersAtInitialRate: members the journal
// recorded but no snapshot ever saw carry no estimate, so a resumed root
// plans them at the configured InitialRate until their telemetry arrives —
// or, in a root with planned workers, at the planned throughput of the
// worker that joined the group in their place.
func TestResumePlansJournalOnlyMembersAtInitialRate(t *testing.T) {
	const k, s, workers, initialRate = 4, 1, 6, 123.0
	f := newElasticFixture(t, k)
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var planned []float64
			for i := range sh.throughputs {
				planned = append(planned, float64(10*(i+1))) // distinct speeds
			}
			cfg := shaped(f.masterConfig(k, s, 1000), planned)
			if planned == nil {
				cfg.MinWorkers = workers
			}
			cfg.DurabilityConfig = clustercfg.DurabilityConfig{CheckpointDir: t.TempDir(), SnapshotEvery: 1000}
			first, err := NewElasticMaster(cfg, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			f.admit(t, first, workers)
			first.Close() // a crash before the first snapshot: the joins live in the journal only

			cfg.Resume, cfg.InitialRate = true, initialRate
			resumed, err := NewElasticMaster(cfg, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer resumed.Close()
			if len(resumed.ControllerState(0).Members) == 0 {
				t.Fatal("the resumed root restored no members")
			}
			for g, grp := range resumed.Plan().Groups {
				for _, ms := range resumed.ControllerState(g).Members {
					want := initialRate
					if planned != nil {
						want = planned[grp.Workers[ms.ID-1]] // member i+1 joined as the group's i-th worker
					}
					if got := restoredRate(t, resumed, g, ms.ID, cfg.MinObservations); got != want {
						t.Errorf("group %d: journal-only member %d planned at %v, want %v", g, ms.ID, got, want)
					}
				}
			}
		})
	}
}

// admit dials n idle workers into ma and waits until it could start: every
// join is journaled on a durable root.
func (f *elasticFixture) admit(t *testing.T, ma *ElasticMaster, n int) {
	t.Helper()
	for _, addr := range dialAddrs(ma, n) {
		w, err := DialElasticWorker(addr, ElasticWorkerConfig{
			Model:         f.model,
			PartitionData: func(p int) (*ml.Dataset, error) { return f.parts[p], nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
	}
	if err := ma.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// restoredRate is the rate group g's controller plans member id at, given
// the controller's MinObservations.
func restoredRate(t *testing.T, ma *ElasticMaster, g, id, minObs int) float64 {
	t.Helper()
	for _, ms := range ma.ControllerState(g).Members {
		if ms.ID == id {
			return estimate.NewMeterFromState(1, ms.Meter).Rate(minObs)
		}
	}
	t.Fatalf("member %d is not in group %d's controller state", id, g)
	return 0
}

// TestRootSentinels: every sentinel a command or test matches on a root
// failure still matches through errors.Is.
func TestRootSentinels(t *testing.T) {
	f := newElasticFixture(t, 4)
	for _, sh := range shapes {
		open := func(mut func(*ElasticConfig)) (*ElasticMaster, error) {
			cfg := shaped(f.masterConfig(4, 1, 1), sh.throughputs)
			mut(&cfg)
			return NewElasticMaster(cfg, "127.0.0.1:0")
		}
		t.Run(sh.name+"/bad config", func(t *testing.T) {
			if _, err := open(func(c *ElasticConfig) { c.K = 0 }); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
		t.Run(sh.name+"/too few workers", func(t *testing.T) {
			ma, err := open(func(*ElasticConfig) {})
			if err != nil {
				t.Fatal(err)
			}
			defer ma.Close()
			if err := ma.WaitForWorkers(20 * time.Millisecond); !errors.Is(err, ErrTooFewWorkers) {
				t.Fatalf("err = %v, want ErrTooFewWorkers", err)
			}
		})
		t.Run(sh.name+"/no checkpoint", func(t *testing.T) {
			_, err := open(func(c *ElasticConfig) {
				c.DurabilityConfig = clustercfg.DurabilityConfig{CheckpointDir: t.TempDir(), Resume: true}
			})
			if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
				t.Fatalf("err = %v, want checkpoint.ErrNoCheckpoint", err)
			}
		})
		t.Run(sh.name+"/checkpoint exists", func(t *testing.T) {
			dir := t.TempDir()
			durable := func(c *ElasticConfig) { c.DurabilityConfig = clustercfg.DurabilityConfig{CheckpointDir: dir} }
			ma, err := open(durable)
			if err != nil {
				t.Fatal(err)
			}
			f.admit(t, ma, max(len(sh.throughputs), 2))
			ma.Close()
			if _, err := open(durable); !errors.Is(err, checkpoint.ErrExists) {
				t.Fatalf("err = %v, want checkpoint.ErrExists", err)
			}
		})
		t.Run(sh.name+"/lease held", func(t *testing.T) {
			dir := t.TempDir()
			if _, err := ha.Acquire(dir, "another-root", "other:0", time.Minute); err != nil {
				t.Fatal(err)
			}
			_, err := open(func(c *ElasticConfig) {
				c.DurabilityConfig = clustercfg.DurabilityConfig{CheckpointDir: dir}
				c.HAConfig = clustercfg.HAConfig{LeaseTTL: time.Minute}
			})
			if !errors.Is(err, ha.ErrLeaseHeld) {
				t.Fatalf("err = %v, want ha.ErrLeaseHeld", err)
			}
		})
	}
}
