package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/shard"
)

// errStop is what the Step clock returns to end a run: the runtimes have no
// cancellation, so the measurement window closes by failing the step after
// the last measured one. Run returns it wrapped and tears the cluster down
// the way it would after any step error.
var errStop = errors.New("bench: measurement window closed")

// span is one timed call recorded by a bench-owned decorator.
type span struct{ start, end time.Time }

// stepClock is the benchmark's iteration clock: an ml.Optimizer decorator
// that stamps the moment each Step returns. The interval between consecutive
// returns is one full iteration as the root sees it — control decision,
// broadcast, collect, decode, step, persist — identical for the flat and the
// sharded runtime, which Result.IterTimes is not (it stops before persist).
// It forwards ml.StatefulOptimizer so snapshots keep the optimizer state.
type stepClock struct {
	inner *ml.SGD
	// The first warm (>= 1) steps are discarded; the window then stays open
	// for measure. A positive limit instead closes it after that many steps
	// (set-up bring-ups, the populate run).
	warm    int
	measure time.Duration
	limit   int
	// onStep is set on traced runs only: the clock then also times the inner
	// Step (the optimizer's self time) and calls onStep(steps applied so far)
	// after each one.
	onStep func(steps int)

	returns []time.Time
	self    []span
	final   []float64 // parameters after the last applied step
	stopped atomic.Bool
}

var _ ml.StatefulOptimizer = (*stepClock)(nil)

func (c *stepClock) Step(params []float64, g grad.Gradient) error {
	n := len(c.returns)
	stop := c.limit > 0 && n >= c.limit
	if c.limit == 0 && n > c.warm {
		stop = c.returns[n-1].Sub(c.returns[c.warm-1]) >= c.measure
	}
	if stop {
		c.final = append(c.final[:0], params...)
		c.stopped.Store(true)
		return errStop
	}
	var start time.Time
	if c.onStep != nil {
		start = time.Now()
	}
	if err := c.inner.Step(params, g); err != nil {
		return err
	}
	now := time.Now()
	c.returns = append(c.returns, now)
	if c.onStep != nil {
		c.self = append(c.self, span{start, now})
		c.onStep(n + 1)
	}
	return nil
}

func (c *stepClock) OptimizerState() ([][]float64, int) { return c.inner.OptimizerState() }

func (c *stepClock) RestoreOptimizerState(vecs [][]float64, step int) error {
	return c.inner.RestoreOptimizerState(vecs, step)
}

// workerRec holds one worker's decorator spans. Only that worker's goroutine
// appends; the harness reads after the worker has exited.
type workerRec struct {
	gradient []span // Model.Gradient calls
	load     []span // PartitionData calls
}

// timedModel times Model.Gradient for one worker.
type timedModel struct {
	ml.Model
	rec *workerRec
}

func (m *timedModel) Gradient(params []float64, d *ml.Dataset) (grad.Gradient, error) {
	start := time.Now()
	g, err := m.Model.Gradient(params, d)
	m.rec.gradient = append(m.rec.gradient, span{start, time.Now()})
	return g, err
}

// bringUp describes one cluster bring-up.
type bringUp struct {
	w     *workload
	in    *inputs
	seed  int64 // cfg.Seed: the runtimes' plan-construction RNG seed
	clock *stepClock
	// iterations is cfg.Iterations: effectively unbounded for runs the clock
	// ends, exact for the populate run that must finish (and release its
	// lease) on its own.
	iterations int
	// tel is nil on untraced runs; recs (one per worker) likewise.
	tel  *obs.Metrics
	recs []*workerRec
	// dir/resume/resumeIDs select the durable variants.
	dir       string
	resume    bool
	resumeIDs []int
}

// outcome is what one bring-up produced.
type outcome struct {
	// start is the instant just before the master constructor was called.
	start time.Time
	// params are the final parameters: the clock's copy when it ended the
	// run, the result's otherwise.
	params []float64
	// ids are the member IDs the workers were acked with, in dial order.
	ids []int
	// failures counts a run error other than the clock's stop and workers
	// that exited before the clock stopped the run.
	failures int
	err      error
}

const unbounded = 1 << 30

// run brings the cluster up, trains until the clock closes the window (or
// iterations complete), and tears everything down.
func (b *bringUp) run() *outcome {
	dim := b.in.model.Dim()
	var durability clustercfg.DurabilityConfig
	var ha clustercfg.HAConfig
	if b.dir != "" {
		durability = clustercfg.DurabilityConfig{CheckpointDir: b.dir, SnapshotEvery: snapshotEvery, Resume: b.resume}
		ha.LeaseTTL = leaseTTL
	}
	drift := 0.0
	if b.w.pinned {
		drift = 1e9
	}
	out := &outcome{start: time.Now()}
	broken := func(err error) *outcome {
		out.err = err
		out.failures++
		return out
	}
	var addrs []string // one dial address per worker slot
	var train func() ([]float64, error)
	var abort func()
	if b.w.sharded {
		root, err := shard.NewRoot(shard.Config{
			K: b.w.k, S: 1, GroupSize: b.w.groupSize, FanIn: 2,
			Throughputs: equalRates(b.w.workers),
			Model:       b.in.model, Optimizer: b.clock, InitialParams: make([]float64, dim),
			Iterations: b.iterations, SampleCount: b.in.full.N(), IterTimeout: iterTimeout,
			DriftThreshold: drift, Seed: b.seed,
			DurabilityConfig: durability, HAConfig: ha,
			TelemetryConfig: clustercfg.TelemetryConfig{Obs: b.tel},
			Wire:            clustercfg.WireConfig{Codec: b.w.codec},
		}, "127.0.0.1:0")
		if err != nil {
			return broken(err)
		}
		groupAddrs := root.GroupAddrs()
		for g, grp := range root.Plan().Groups {
			for range grp.Workers {
				addrs = append(addrs, groupAddrs[g])
			}
		}
		abort = root.Close
		train = func() ([]float64, error) {
			if err := root.WaitForWorkers(iterTimeout); err != nil {
				root.Close()
				return nil, err
			}
			res, err := root.Run()
			if err != nil {
				return nil, err
			}
			return res.Params, nil
		}
	} else {
		ma, err := runtime.NewElasticMaster(runtime.ElasticConfig{
			K: b.w.k, S: 1,
			Model: b.in.model, Optimizer: b.clock, InitialParams: make([]float64, dim),
			Iterations: b.iterations, SampleCount: b.in.full.N(), IterTimeout: iterTimeout,
			MinWorkers: b.w.workers, DriftThreshold: drift, Seed: b.seed,
			DurabilityConfig: durability, HAConfig: ha,
			TelemetryConfig: clustercfg.TelemetryConfig{Obs: b.tel},
			Wire:            clustercfg.WireConfig{Codec: b.w.codec},
		}, "127.0.0.1:0")
		if err != nil {
			return broken(err)
		}
		for i := 0; i < b.w.workers; i++ {
			addrs = append(addrs, ma.Addr())
		}
		abort = ma.Close
		train = func() ([]float64, error) {
			if err := ma.WaitForWorkers(iterTimeout); err != nil {
				ma.Close()
				return nil, err
			}
			res, err := ma.Run()
			if err != nil {
				return nil, err
			}
			return res.Params, nil
		}
	}

	var wg sync.WaitGroup
	var early atomic.Int32
	for slot, addr := range addrs {
		w, err := runtime.DialElasticWorker(addr, b.workerConfig(slot))
		if err != nil {
			abort()
			wg.Wait()
			return broken(fmt.Errorf("dial worker %d: %w", slot, err))
		}
		out.ids = append(out.ids, w.ID())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(); err != nil && !b.clock.stopped.Load() {
				early.Add(1)
			}
		}()
	}
	params, err := train()
	wg.Wait()
	out.failures += int(early.Load())
	switch {
	case err == nil:
		out.params = params
	case errors.Is(err, errStop):
		out.params = b.clock.final
	default:
		out.err = err
		out.failures++
	}
	return out
}

func (b *bringUp) workerConfig(slot int) runtime.ElasticWorkerConfig {
	cfg := runtime.ElasticWorkerConfig{
		Model:         b.in.model,
		PartitionData: func(p int) (*ml.Dataset, error) { return b.in.parts[p], nil },
		Delay:         b.in.extraDelay(b.w, slot),
	}
	if len(b.w.partDelayMS) > 0 {
		d := time.Duration(b.w.partDelayMS[slot]) * time.Millisecond
		cfg.DelayPerPartition = func(int) time.Duration { return d }
	}
	if b.resume {
		cfg.ResumeID = b.resumeIDs[slot]
	}
	if b.recs != nil {
		rec := b.recs[slot]
		cfg.Model = &timedModel{Model: b.in.model, rec: rec}
		cfg.PartitionData = func(p int) (*ml.Dataset, error) {
			start := time.Now()
			d := b.in.parts[p]
			rec.load = append(rec.load, span{start, time.Now()})
			return d, nil
		}
	}
	return cfg
}

// settle runs between bring-ups: it collects garbage and waits for the
// goroutine count to fall back to base, so one cluster's leftovers can
// neither leak into nor be billed to the next. It reports whether the count
// returned to base within two seconds.
func settle(base int) bool {
	goruntime.GC()
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// copyDir copies the regular files of src into a fresh directory dst; a
// checkpoint directory is flat.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
