package runtime_test

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/partition"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/testkit"
)

// closedCountingModel counts the Gradient calls one worker makes for an
// iteration the master has already closed: iter is the iteration the worker
// is in (its Delay hook stores it), closed the number the master has stepped.
type closedCountingModel struct {
	ml.Model
	iter, closed *atomic.Int64
	stale        atomic.Int64
}

func (c *closedCountingModel) Gradient(params []float64, d *ml.Dataset) (grad.Gradient, error) {
	if c.closed.Load() > c.iter.Load() {
		c.stale.Add(1)
	}
	return c.Model.Gradient(params, d)
}

// loadModel is a Softmax that records how many partitions its last one-pass
// call covered: the worker's load in the plan it last computed under.
type loadModel struct {
	*ml.Softmax
	load atomic.Int64
}

func (m *loadModel) CodedGradient(dst grad.Gradient, params []float64, parts []*ml.Dataset, coeffs []float64) error {
	m.load.Store(int64(len(parts)))
	return m.Softmax.CodedGradient(dst, params, parts, coeffs)
}

// TestElasticStallAbsorbedLive is the paper's straggler model on the live
// runtime: one member stalls once, for about twenty iterations' worth of
// time, and s=1 must absorb exactly that — the iteration it stalls in, not
// the twenty after. Everything is counted, nothing is timed: the member is
// the cluster's fastest (a quarter of the others' per-partition delay under a
// frozen uniform plan), so apart from the stall it is never the upload the
// decode leaves behind.
func TestElasticStallAbsorbedLive(t *testing.T) {
	const (
		k, s, workers = 16, 1, 8
		load          = k * (s + 1) / workers
		iters         = 50
		stallAt       = 20
		fastDelay     = 1 * time.Millisecond // the stalling member, per partition
		slowDelay     = 4 * time.Millisecond // everyone else
		stall         = 20 * load * slowDelay
	)
	f := newFixture(t, k)
	cfg := elasticConfig(f, s, iters)
	cfg.MinWorkers = workers
	cfg.DriftThreshold = 1e9 // the uniform initial plan stays
	tel := obs.New()
	cfg.TelemetryConfig = clustercfg.TelemetryConfig{Obs: tel}
	var closed, cur atomic.Int64
	closed.Store(-1) // LossFn runs once before the first iteration
	cfg.LossFn = func([]float64) (float64, error) {
		closed.Add(1)
		return 0, nil
	}

	model := &closedCountingModel{Model: f.Model, iter: &cur, closed: &closed}
	var started []int // iterations the stalling member began, in order (its goroutine only)
	l := testkit.Start(t, f, cfg, workers, func(i int, wc *runtime.ElasticWorkerConfig) {
		wc.DelayPerPartition = func(int) time.Duration { return slowDelay }
		if i == 0 {
			wc.Model = model
			wc.DelayPerPartition = func(int) time.Duration { return fastDelay }
			wc.Delay = func(iter int) time.Duration {
				cur.Store(int64(iter))
				started = append(started, iter)
				if iter == stallAt {
					return stall
				}
				return 0
			}
		}
	})
	stalledID := l.Workers[0].ID()
	res, err := l.Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// What the master made of the member, iteration by iteration.
	contributed, erased := map[int]bool{}, map[int]bool{}
	for _, tr := range tel.Tracer().Recent(0) {
		for _, ms := range tr.Members {
			switch {
			case ms.Member != stalledID:
			case !ms.Partial:
				contributed[tr.Iter] = true
			case ms.Reason == obs.RStraggler:
				erased[tr.Iter] = true
			}
		}
	}
	if n := model.stale.Load(); n > load {
		t.Errorf("the stalled member made %d Gradient calls for iterations already closed, want at most one iteration's %d", n, load)
	}
	// roster.Stats does not split its counts by member (every iteration's
	// last upload is somebody's late one), so the member's unused uploads are
	// bounded from its own side: it uploads at most once per iteration it
	// starts, and the trace says which of those the master decoded with.
	unused := 0
	for _, iter := range started {
		if !contributed[iter] {
			unused++
		}
	}
	if res.Groups[0].StaleEpochRejected+unused > 2 {
		t.Errorf("%d iterations the stalled member started went unused (%d stale-epoch rejections run-wide), want at most 2 in all", unused, res.Groups[0].StaleEpochRejected)
	}
	if !erased[stallAt] || len(erased) > 2 {
		t.Errorf("straggler erasures on the stalled member at iterations %v, want one at %d and not a run of them", erased, stallAt)
	}
	woke := -1
	for _, iter := range started {
		if iter > stallAt {
			woke = iter
			break
		}
	}
	if woke < 0 || !(contributed[woke] || contributed[woke+1]) {
		t.Errorf("the stalled member woke at iteration %d and was in neither that decode nor the next (started %v)", woke, started)
	}
}

// TestElasticPersistentSlowdownReplansLive is the one-group root's twin of
// shard's TestShardedGroupLocalMigrationLive: a worker turns 12x slower for
// good. It is superseded every iteration from then on — the other three
// decode without it — so everything the controller learns about it comes
// from abandoned iterations, and it must still learn the declared rate and
// shed the worker's load. (Telemetry that reported the time until the master
// moved on would show a worker exactly as fast as the cluster.)
func TestElasticPersistentSlowdownReplansLive(t *testing.T) {
	const (
		k, s, workers = 8, 1, 4
		iters         = 30
		slowAt        = 6
		fastDelay     = 2 * time.Millisecond
		slowDelay     = 25 * time.Millisecond
	)
	f := newFixture(t, k)
	cfg := elasticConfig(f, s, iters)
	cfg.MinWorkers = workers
	cfg.Alpha = 0.7
	cfg.DriftThreshold = 0.5
	cfg.MinObservations = 2
	cfg.CooldownIters = 2
	cfg.InitialRate = 1 / fastDelay.Seconds() // accurate priors: no warm-up drift
	l := testkit.Start(t, f, cfg, workers, func(i int, wc *runtime.ElasticWorkerConfig) {
		slow := i == 0
		wc.DelayPerPartition = func(iter int) time.Duration {
			if slow && iter >= slowAt {
				return slowDelay
			}
			return fastDelay
		}
	})
	slowID := l.Workers[0].ID()
	res, err := l.Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	drift := false
	for _, ev := range res.Groups[0].Replans {
		drift = drift || ev.Reason == obs.ReasonDrift
	}
	if !drift {
		t.Fatalf("no drift replan despite a 12x slowdown: %+v", res.Groups[0].Replans)
	}
	declared := 1 / slowDelay.Seconds()
	for _, ms := range l.Root.ControllerState(0).Members {
		if ms.ID != slowID {
			continue
		}
		if rate := ms.Meter.Value; math.Abs(rate-declared) > 0.25*declared {
			t.Fatalf("controller holds the slowed worker at %.1f partitions/s, declared %.1f", rate, declared)
		}
		return
	}
	t.Fatalf("member %d is not in the controller state", slowID)
}

// TestElasticStallsKeepThePlanLive is the benchmark's hetero-straggler case
// as a count: eight workers of four declared speeds, s = 1, every
// control-plane default, and from iteration 7 on every seventh iteration one
// of them, each in turn, stalls for a second — fifty iterations' worth, and
// free: the straggler budget absorbs a stall, and the worker abandons it at
// the next broadcast. The plan must not move for one either. The fleet is to
// reach the loads that are makespan-optimal for the declared speeds and be on
// them at the end, in at most three plans: the uniform initial one, the warm
// one, and one spare. k = 15 makes the proportional ideal integral,
// 8 8 4 4 2 2 1 1, with 12 % to the next-best loads either way; at the
// benchmark's k = 16 the optimum 9 9 4 4 2 2 1 1 is 5 % from 9 8 4 5 …, less
// than timer overshoot moves the estimates the warm plan is built from.
func TestElasticStallsKeepThePlanLive(t *testing.T) {
	const (
		k, s, workers = 15, 1, 8
		every         = 7
		iters         = every * (workers + 1) // the last stall is superseded like the rest
		unit          = 2 * time.Millisecond
		stall         = time.Second
	)
	perPart := [workers]time.Duration{unit, unit, 2 * unit, 2 * unit, 4 * unit, 4 * unit, 8 * unit, 8 * unit}
	f := newFixture(t, k)
	cfg := elasticConfig(f, s, iters)
	cfg.MinWorkers = workers
	cfg.Alpha, cfg.MinObservations, cfg.CooldownIters = 0, 0, 0 // elastic.Config's defaults
	models := make([]*loadModel, workers)
	l := testkit.Start(t, f, cfg, workers, func(i int, wc *runtime.ElasticWorkerConfig) {
		models[i] = &loadModel{Softmax: f.Model}
		wc.Model = models[i]
		wc.DelayPerPartition = func(int) time.Duration { return perPart[i] }
		wc.Delay = func(iter int) time.Duration {
			if iter > 0 && iter%every == 0 && (iter/every-1)%workers == i {
				return stall
			}
			return 0
		}
	})
	declared := map[int]float64{} // member ID → partitions/second
	for i, w := range l.Workers {
		declared[w.ID()] = 1 / perPart[i].Seconds()
	}
	fleet := l.Workers
	res, err := l.Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups[0].Replans) > 3 {
		t.Errorf("%d plans for a fleet whose speeds never changed, want at most 3: %+v", len(res.Groups[0].Replans), res.Groups[0].Replans)
	}
	// Every worker's last pass covers its assignment in the final plan: its
	// load.
	loads := make([]int, len(fleet))
	rates := make([]float64, len(fleet))
	for i, w := range fleet {
		loads[i], rates[i] = int(models[i].load.Load()), declared[w.ID()]
	}
	best, err := partition.ProportionalLoads(rates, k, s)
	if err != nil {
		t.Fatal(err)
	}
	span := func(loads []int) (t float64) {
		for i, n := range loads {
			t = math.Max(t, float64(n)/rates[i])
		}
		return t
	}
	if got, want := span(loads), span(best); got != want {
		t.Errorf("final loads %v take %.0f ms at the declared speeds %v, the optimum %v takes %.0f ms (plans: %+v)",
			loads, 1e3*got, rates, best, 1e3*want, res.Groups[0].Replans)
	}
}
