package shard

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/roster"
	"github.com/hetgc/hetgc/internal/testkit"
	"github.com/hetgc/hetgc/internal/transport"
)

// TestSharedIterationTraceParity drives the one group iteration both
// runtimes run (roster.Loop) through a forced mid-iteration death on a
// loopback engine and checks what each caller reads off it: the flat
// master's iteration trace — broadcast/collect/decode phases, stitched
// member spans including the partial ones, the completed epoch in the trace
// ID — and the group master's root-tier child span, gather as compute and
// combine as encode.
func TestSharedIterationTraceParity(t *testing.T) {
	const k, s, workers, iters, killAt = 4, 1, 4, 4, 2
	fx, err := testkit.NewFixture(k, 300)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := elastic.NewController(elastic.Config{K: k, S: s, InitialRate: 500, DriftThreshold: 2, CooldownIters: 1 << 20}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New()
	eng, err := roster.New(roster.Config{Controller: ctrl, WriteTimeout: 5 * time.Second, K: k, S: s, Obs: tel}, lis)
	if err != nil {
		t.Fatal(err)
	}
	gc := &group{loop: roster.Loop{Eng: eng, IterTimeout: 5 * time.Second, MaxRetries: 2}}

	// Workers join one at a time, so dial order is plan-slot order. Slots 0
	// and 2 vanish between iteration killAt's broadcast and their uploads;
	// under the uniform allocation the survivors, slots 1 and 3, hold the
	// same partitions, so the epoch cannot complete and the iteration
	// migrates and retries.
	var wg sync.WaitGroup
	var progress atomic.Int64
	for i := 0; i < workers; i++ {
		var b testkit.Behavior
		if i%2 == 0 {
			b.KillAtIter = killAt
		}
		sc := &testkit.Scenario{Behaviors: map[int]testkit.Behavior{0: b}}
		testkit.DriveWorkers(sc, []string{eng.Addr()}, fx, &wg, &progress)
		if err := eng.WaitForMembers(i+1, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	params := fx.Model.InitParams(nil)
	sum := grad.GetBuffer(len(params))
	defer grad.PutBuffer(sum)
	var epochs []int // the epoch each iteration decoded under
	for iter := 0; iter < iters; iter++ {
		scope := tel.StartIter(iter, -1)
		if err := gc.loop.Iteration(scope, iter, params, sum); err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		scope.End()
		if iter == 0 && gc.loop.Plan.Strategy.CanDecode([]bool{false, true, false, true}) {
			t.Fatal("slots 1 and 3 decode alone: the layout this scenario relies on changed")
		}
		epochs = append(epochs, gc.loop.Plan.Epoch)
		// The group caller's view: its child span reads the gather as
		// compute and the combine as encode.
		spans := gc.span(time.Now()).Spans
		if len(spans) != 2 || spans[0].Phase != obs.PhaseCompute || spans[1].Phase != obs.PhaseEncode {
			t.Fatalf("iteration %d: group spans %+v, want compute + encode", iter, spans)
		}
		if spans[0].Seconds != gc.loop.Gather || gc.loop.Gather <= 0 || spans[1].Seconds != gc.loop.Combine {
			t.Fatalf("iteration %d: group spans %+v do not carry gather %v / combine %v", iter, spans, gc.loop.Gather, gc.loop.Combine)
		}
	}
	eng.Shutdown(true)
	wg.Wait()

	// The flat caller's view.
	traces := tel.Tracer().Recent(0)
	if len(traces) != iters {
		t.Fatalf("trace ring holds %d iterations, want %d", len(traces), iters)
	}
	for _, tr := range traces {
		if want := obs.TraceID(0, tr.Epoch, tr.Iter); tr.TraceID != want || tr.Epoch != epochs[tr.Iter] {
			t.Fatalf("iter %d: trace id %#x / epoch %d, want %#x / the epoch it decoded under", tr.Iter, tr.TraceID, tr.Epoch, want)
		}
		phases := map[string]int{}
		for _, sp := range tr.Spans {
			phases[sp.Phase]++
		}
		dead, full := 0, 0
		for _, ms := range tr.Members {
			switch {
			case ms.Partial && ms.Reason == obs.RDead:
				dead++
			case !ms.Partial && ms.Arrival > 0:
				full++
			}
		}
		wantRounds := 1
		if tr.Iter == killAt {
			wantRounds = 2 // the failed attempt and the retry
			if dead != 2 || tr.Epoch < 1 {
				t.Fatalf("iter %d: %d members stitched partial/dead under epoch %d, want 2 under a migrated epoch: %+v", tr.Iter, dead, tr.Epoch, tr.Members)
			}
		}
		if phases[obs.PhaseBroadcast] != wantRounds || phases[obs.PhaseCollect] != wantRounds || phases[obs.PhaseDecode] != 1 {
			t.Fatalf("iter %d: phases %v, want %d broadcast+collect rounds and one decode", tr.Iter, phases, wantRounds)
		}
		if full == 0 {
			t.Fatalf("iter %d: no full contribution stitched: %+v", tr.Iter, tr.Members)
		}
	}
}
