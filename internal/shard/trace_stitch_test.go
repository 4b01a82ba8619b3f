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
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/testkit"
)

func TestTraceStitchingUnderChurnSharded(t *testing.T) {
	fx := testkit.NewFixture(t, 8, 12, 300)
	sc := &testkit.Scenario{
		Name: "trace-stitch-sharded", K: 8, S: 1, Workers: 8, GroupSize: 4, Iters: 20,
		IterTimeout: 5 * time.Second, InitialRate: 500,
		Alpha: 0.7, DriftThreshold: 2.0, MinObservations: 2, CooldownIters: 1 << 20,
		Behaviors: map[int]testkit.Behavior{
			0: {KillAtIter: 6},
			1: {KillAtIter: 6},
		},
	}
	tel := obs.New()
	cfg := sc.Config(fx, testkit.Grouped)
	cfg.TelemetryConfig = clustercfg.TelemetryConfig{Obs: tel}
	l := testkit.Start(t, fx, cfg, 0, nil)
	var wg sync.WaitGroup
	var progress atomic.Int64
	testkit.DriveWorkers(sc, l.Addrs(sc.Workers), fx, &wg, &progress)
	res, err := l.Run(10 * time.Second)
	l.Close()
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
