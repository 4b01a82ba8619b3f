// Trace stitching under churn: the wire-propagated trace context and the
// root-synthesized partial spans must survive the adversarial schedules the
// conformance harness scripts — a worker killed between broadcast and
// upload yields a partial member span labeled with its erasure reason, and
// iterations completed after a migration carry the new epoch in their trace
// context identifier.
package runtime_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/testkit"
)

func TestTraceStitchingUnderChurnFlat(t *testing.T) {
	fx, err := testkit.NewFixture(8, 300)
	if err != nil {
		t.Fatal(err)
	}
	sc := &testkit.Scenario{
		Name: "trace-stitch", K: 8, S: 1, Workers: 8, GroupSize: 4, Iters: 20,
		IterTimeout: 5 * time.Second, InitialRate: 500,
		Alpha: 0.7, DriftThreshold: 2.0, MinObservations: 2, CooldownIters: 1 << 20,
		Behaviors: map[int]testkit.Behavior{
			// Two workers of one coding group vanish between the broadcast
			// and their uploads — the mid-iteration death the RDead partial
			// span exists for.
			0: {KillAtIter: 6},
			1: {KillAtIter: 6},
		},
	}
	tel := obs.New()
	ma, err := runtime.NewElasticMaster(runtime.ElasticConfig{
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
		TelemetryConfig: clustercfg.TelemetryConfig{Obs: tel},
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()

	addrs := make([]string, sc.Workers)
	for i := range addrs {
		addrs[i] = ma.Addr()
	}
	var wg sync.WaitGroup
	var progress atomic.Int64
	testkit.DriveWorkers(sc, addrs, fx, &wg, &progress)
	if err := ma.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := ma.Run()
	ma.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Epochs[len(res.Groups[0].Epochs)-1] < 1 {
		t.Fatalf("no migration happened (final epoch %d) — the scenario lost its teeth", res.Groups[0].Epochs[len(res.Groups[0].Epochs)-1])
	}

	traces := tel.Tracer().Recent(0)
	if len(traces) != sc.Iters {
		t.Fatalf("trace ring holds %d iterations, want %d", len(traces), sc.Iters)
	}

	var sawDead, sawFull, sawMigrated bool
	for _, tr := range traces {
		// Every recorded trace carries the wire trace context, and the ID
		// encodes the epoch the iteration actually completed under — a
		// post-migration iteration carries the new epoch.
		if want := obs.TraceID(0, tr.Epoch, tr.Iter); tr.TraceID != want {
			t.Fatalf("iter %d: trace id %#x does not encode (epoch=%d, iter=%d): want %#x",
				tr.Iter, tr.TraceID, tr.Epoch, tr.Iter, want)
		}
		if tr.Epoch >= 1 {
			sawMigrated = true
		}
		for _, ms := range tr.Members {
			if ms.Partial {
				if ms.Reason == "" {
					t.Fatalf("iter %d: partial span for member %d has no erasure reason", tr.Iter, ms.Member)
				}
				if ms.Reason == obs.RDead {
					sawDead = true
				}
			} else {
				sawFull = true
				if ms.Arrival <= 0 {
					t.Fatalf("iter %d: full contribution from member %d with non-positive arrival %v",
						tr.Iter, ms.Member, ms.Arrival)
				}
			}
		}
	}
	if !sawDead {
		t.Error("no mid-iteration death was stitched as a partial span with reason \"dead\"")
	}
	if !sawFull {
		t.Error("no full contribution was stitched into any trace")
	}
	if !sawMigrated {
		t.Error("no recorded trace carries a post-migration epoch")
	}

	// The stitched spans fed the attribution families: the erasure counter
	// carries the dead members by reason, and the report window is live.
	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `reason="`+obs.RDead+`"`) {
		t.Error("erasure counter has no dead-reason series")
	}
	if rep := tel.StragglerReport(0); rep.WindowIters == 0 || len(rep.Members) == 0 {
		t.Errorf("straggler report empty: %+v", rep)
	}
}
