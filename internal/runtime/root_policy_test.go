package runtime_test

import (
	"errors"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/estimate"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/testkit"
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
func shaped(cfg shard.Config, throughputs []float64) shard.Config {
	cfg.Throughputs, cfg.GroupSize, cfg.FanIn = throughputs, 3, 2
	return cfg
}

// TestFailedRunShutsWorkersDown: a run that fails without being fenced
// dismisses its workers with MsgShutdown — each worker's Run returns nil —
// instead of leaving them on a dead connection.
func TestFailedRunShutsWorkersDown(t *testing.T) {
	const k, s, workers = 4, 1, 6
	f := newFixture(t, k)
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := shaped(elasticConfig(f, s, 20), sh.throughputs)
			if sh.throughputs == nil {
				cfg.MinWorkers = workers
			}
			cfg.Optimizer = &failingOptimizer{SGD: ml.SGD{LR: 0.5}, failAt: 3}
			master := testkit.Start(t, f, cfg, workers, nil)
			if err := master.Root.WaitForWorkers(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if _, err := master.Run(0); !errors.Is(err, errStepFailed) {
				t.Fatalf("run err = %v, want the optimizer's failure", err)
			}
			for i, err := range master.Errs() {
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
	f := newFixture(t, 4)
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
			cfg := elasticConfig(f, 1, 1)
			if tc.throughputs != nil {
				cfg = shaped(cfg, tc.throughputs)
			}
			cfg.Scheme = kind
			master, err := testkit.Open(f, cfg)
			switch {
			case tc.refused && !errors.Is(err, runtime.ErrBadConfig):
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
	f := newFixture(t, k)
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var planned []float64
			for i := range sh.throughputs {
				planned = append(planned, float64(10*(i+1))) // distinct speeds
			}
			cfg := shaped(elasticConfig(f, s, 1000), planned)
			if planned == nil {
				cfg.MinWorkers = workers
			}
			cfg.DurabilityConfig = clustercfg.DurabilityConfig{CheckpointDir: t.TempDir(), SnapshotEvery: 1000}
			first := testkit.Start(t, f, cfg, workers, nil)
			// Once the root could start, every join is journaled.
			if err := first.Root.WaitForWorkers(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			first.Close() // a crash before the first snapshot: the joins live in the journal only

			cfg.Resume, cfg.InitialRate = true, initialRate
			resumed := testkit.Start(t, f, cfg, 0, nil).Root
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

// restoredRate is the rate group g's controller plans member id at, given
// the controller's MinObservations.
func restoredRate(t *testing.T, ma *shard.Root, g, id, minObs int) float64 {
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
	f := newFixture(t, 4)
	for _, sh := range shapes {
		open := func(mut func(*shard.Config)) (*testkit.Live, error) {
			cfg := shaped(elasticConfig(f, 1, 1), sh.throughputs)
			mut(&cfg)
			return testkit.Open(f, cfg)
		}
		t.Run(sh.name+"/bad config", func(t *testing.T) {
			if _, err := open(func(c *shard.Config) { c.K = 0 }); !errors.Is(err, runtime.ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
		t.Run(sh.name+"/too few workers", func(t *testing.T) {
			ma, err := open(func(*shard.Config) {})
			if err != nil {
				t.Fatal(err)
			}
			defer ma.Close()
			if err := ma.Root.WaitForWorkers(20 * time.Millisecond); !errors.Is(err, runtime.ErrTooFewWorkers) {
				t.Fatalf("err = %v, want ErrTooFewWorkers", err)
			}
		})
		t.Run(sh.name+"/no checkpoint", func(t *testing.T) {
			_, err := open(func(c *shard.Config) {
				c.DurabilityConfig = clustercfg.DurabilityConfig{CheckpointDir: t.TempDir(), Resume: true}
			})
			if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
				t.Fatalf("err = %v, want checkpoint.ErrNoCheckpoint", err)
			}
		})
		t.Run(sh.name+"/checkpoint exists", func(t *testing.T) {
			dir := t.TempDir()
			durable := func(c *shard.Config) { c.DurabilityConfig = clustercfg.DurabilityConfig{CheckpointDir: dir} }
			ma, err := open(durable)
			if err != nil {
				t.Fatal(err)
			}
			ma.Dial(t, max(len(sh.throughputs), 2), nil)
			if err := ma.Root.WaitForWorkers(5 * time.Second); err != nil {
				t.Fatal(err)
			}
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
			_, err := open(func(c *shard.Config) {
				c.DurabilityConfig = clustercfg.DurabilityConfig{CheckpointDir: dir}
				c.HAConfig = clustercfg.HAConfig{LeaseTTL: time.Minute}
			})
			if !errors.Is(err, ha.ErrLeaseHeld) {
				t.Fatalf("err = %v, want ha.ErrLeaseHeld", err)
			}
		})
	}
}
