// Trace stitching under churn, sharded: the root's trace children are the
// group masters (Group -1), while worker-level stitching — including the
// partial "dead" span of a worker killed between broadcast and upload —
// happens at each group master and lands in the shared group-labeled
// attribution families.
package shard_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/testkit"
)

func TestTraceStitchingUnderChurnSharded(t *testing.T) {
	fx, err := testkit.NewFixture(8, 300)
	if err != nil {
		t.Fatal(err)
	}
	sc := &testkit.Scenario{
		Name: "trace-stitch-sharded", K: 8, S: 1, Workers: 8, GroupSize: 4, Iters: 20,
		IterTimeout: 5 * time.Second, InitialRate: 500,
		Alpha: 0.7, DriftThreshold: 2.0, MinObservations: 2, CooldownIters: 1 << 20,
		Behaviors: map[int]testkit.Behavior{
			0: {KillAtIter: 6},
			1: {KillAtIter: 6},
		},
	}
	thr := make([]float64, sc.Workers)
	for i := range thr {
		thr[i] = sc.InitialRate
	}
	tel := obs.New()
	root, err := shard.NewRoot(shard.Config{
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
		TelemetryConfig: clustercfg.TelemetryConfig{Obs: tel},
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	groupAddrs := root.GroupAddrs()
	var addrs []string
	for g, grp := range root.Plan().Groups {
		for i := 0; i < len(grp.Workers); i++ {
			addrs = append(addrs, groupAddrs[g])
		}
	}
	var wg sync.WaitGroup
	var progress atomic.Int64
	testkit.DriveWorkers(sc, addrs, fx, &wg, &progress)
	if err := root.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := root.Run()
	root.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	migrated := false
	for _, gs := range res.Groups {
		if n := len(gs.Epochs); n > 0 && gs.Epochs[n-1] >= 1 {
			migrated = true
		}
	}
	if !migrated {
		t.Fatal("no group migrated — the scenario lost its teeth")
	}

	traces := tel.Tracer().Recent(0)
	if len(traces) != sc.Iters {
		t.Fatalf("trace ring holds %d iterations, want %d", len(traces), sc.Iters)
	}
	for _, tr := range traces {
		// Root-tier trace context: epoch -1 (epochs are group-local), the
		// iteration encoded in the ID.
		if want := obs.TraceID(0, -1, tr.Iter); tr.TraceID != want {
			t.Fatalf("iter %d: trace id %#x, want %#x", tr.Iter, tr.TraceID, want)
		}
		if len(tr.Members) == 0 {
			t.Fatalf("iter %d: no group child spans stitched", tr.Iter)
		}
		for _, ms := range tr.Members {
			if ms.Group != -1 {
				t.Fatalf("iter %d: root-tier child labeled group %d, want -1 (members are group masters)", tr.Iter, ms.Group)
			}
			if !ms.Partial && ms.Arrival <= 0 {
				t.Fatalf("iter %d: group %d sum arrived with non-positive latency %v", tr.Iter, ms.Member, ms.Arrival)
			}
		}
	}

	// Worker-level stitching happened at the group masters: the killed
	// workers' partial spans reached the group-labeled erasure counter with
	// reason "dead", and full contributions fed the latency histogram.
	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp := sb.String()
	if !strings.Contains(exp, `reason="`+obs.RDead+`"`) {
		t.Error("erasure counter has no dead-reason series — mid-iteration deaths were not stitched")
	}
	if !strings.Contains(exp, obs.MContribSeconds) {
		t.Error("contribution-latency histogram never observed a sample")
	}
}
