package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/hetgc/hetgc/internal/metrics"
	"github.com/hetgc/hetgc/internal/ml"
)

// ErrBadConfig is returned for invalid SSP configurations.
var ErrBadConfig = errors.New("sim: invalid config")

// SSPConfig simulates the Stale-Synchronous-Parallel baseline of Fig. 4: the
// dataset is split evenly, each worker iterates at its own speed and pushes
// stale gradients, and a worker may run at most Staleness iterations ahead
// of the slowest one. On heterogeneous clusters the staleness gate trips
// almost every step (the behaviour the paper reports).
type SSPConfig struct {
	// Throughputs are per-worker speeds as full-dataset fractions per second;
	// each worker's 1/m shard costs (1/m)/r_i seconds.
	Throughputs []float64
	// Staleness is the SSP bound (0 = BSP).
	Staleness int
	// Model, Data, Optimizer define the optimisation problem.
	Model     ml.Model
	Data      *ml.Dataset
	Optimizer ml.Optimizer
	// IterationsPerWorker is each worker's iteration budget.
	IterationsPerWorker int
	// FluctuationStd is mean-one lognormal compute jitter (0 = none).
	FluctuationStd float64
	// CommOverhead is the per-update communication cost in seconds.
	CommOverhead float64
	// Rng drives jitter; required when FluctuationStd > 0.
	Rng *rand.Rand
	// RecordEvery records loss every that many applied updates (default m).
	RecordEvery int
	// Name labels the resulting curve.
	Name string
}

// SSPResult is the outcome of an SSP simulation.
type SSPResult struct {
	// Curve is (simulated seconds, mean training loss).
	Curve metrics.Series
	// Params are the final parameters.
	Params []float64
	// FinalLoss is the final mean training loss.
	FinalLoss float64
	// BlockedEvents counts iteration starts delayed by the staleness gate.
	BlockedEvents int
	// TotalTime is the simulated makespan in seconds.
	TotalTime float64
}

type sspWorker struct {
	iters   int     // completed iterations
	finish  float64 // completion time of the in-flight iteration
	pending []float64
	blocked bool
	done    bool
}

// RunSSP simulates asynchronous SSP training with stale gradients: each
// worker snapshots the parameters when an iteration starts, computes its
// shard gradient from that snapshot, and applies it at completion time.
func RunSSP(cfg SSPConfig) (*SSPResult, error) {
	m := len(cfg.Throughputs)
	if m == 0 || cfg.Model == nil || cfg.Data == nil || cfg.Optimizer == nil {
		return nil, fmt.Errorf("%w: ssp requires throughputs/model/data/optimizer", ErrBadConfig)
	}
	if cfg.IterationsPerWorker <= 0 || cfg.Staleness < 0 {
		return nil, fmt.Errorf("%w: iters=%d staleness=%d", ErrBadConfig, cfg.IterationsPerWorker, cfg.Staleness)
	}
	for i, v := range cfg.Throughputs {
		if v <= 0 {
			return nil, fmt.Errorf("%w: throughput[%d]=%v", ErrBadConfig, i, v)
		}
	}
	if cfg.FluctuationStd > 0 && cfg.Rng == nil {
		return nil, fmt.Errorf("%w: fluctuation requires rng", ErrBadConfig)
	}
	if cfg.RecordEvery <= 0 {
		cfg.RecordEvery = m
	}
	shards, err := cfg.Data.Split(m)
	if err != nil {
		return nil, err
	}

	params := cfg.Model.InitParams(cfg.Rng)
	res := &SSPResult{Curve: metrics.Series{Name: cfg.Name}}
	if l, err := ml.MeanLoss(cfg.Model, params, cfg.Data); err == nil {
		res.Curve.Append(0, l)
	}

	computeTime := func(w int) float64 {
		t := (1 / float64(m)) / cfg.Throughputs[w]
		if cfg.FluctuationStd > 0 {
			sigma := cfg.FluctuationStd
			t *= math.Exp(sigma*cfg.Rng.NormFloat64() - sigma*sigma/2)
		}
		return t + cfg.CommOverhead
	}
	snapshotGrad := func(w int) ([]float64, error) {
		g, err := cfg.Model.Gradient(params, shards[w])
		if err != nil {
			return nil, err
		}
		g.Scale(1 / float64(shards[w].N()))
		return g, nil
	}

	workers := make([]sspWorker, m)
	for w := range workers {
		g, err := snapshotGrad(w)
		if err != nil {
			return nil, err
		}
		workers[w] = sspWorker{finish: computeTime(w), pending: g}
	}

	minIters := func() int {
		mi := math.MaxInt
		for w := range workers {
			if !workers[w].done && workers[w].iters < mi {
				mi = workers[w].iters
			}
		}
		if mi == math.MaxInt {
			mi = 0
		}
		return mi
	}

	now := 0.0
	updates := 0
	total := m * cfg.IterationsPerWorker
	for updates < total {
		// Earliest in-flight completion.
		next := -1
		for w := range workers {
			if workers[w].done || workers[w].blocked {
				continue
			}
			if next < 0 || workers[w].finish < workers[next].finish {
				next = w
			}
		}
		if next < 0 {
			return nil, fmt.Errorf("%w: ssp deadlock (all workers blocked)", ErrBadConfig)
		}
		w := &workers[next]
		now = w.finish
		if err := cfg.Optimizer.Step(params, w.pending); err != nil {
			return nil, err
		}
		w.iters++
		updates++
		if updates%cfg.RecordEvery == 0 {
			if l, err := ml.MeanLoss(cfg.Model, params, cfg.Data); err == nil {
				res.Curve.Append(now, l)
			}
		}
		if w.iters >= cfg.IterationsPerWorker {
			w.done = true
		} else if w.iters > minIters()+cfg.Staleness {
			// Too far ahead: wait for the slowest worker.
			w.blocked = true
			res.BlockedEvents++
		} else {
			g, err := snapshotGrad(next)
			if err != nil {
				return nil, err
			}
			w.pending = g
			w.finish = now + computeTime(next)
		}
		// Unblock any worker now within the staleness window.
		mi := minIters()
		for v := range workers {
			wv := &workers[v]
			if !wv.blocked || wv.done {
				continue
			}
			if wv.iters <= mi+cfg.Staleness {
				g, err := snapshotGrad(v)
				if err != nil {
					return nil, err
				}
				wv.pending = g
				wv.finish = now + computeTime(v)
				wv.blocked = false
			}
		}
	}
	res.Params = params
	res.TotalTime = now
	if l, err := ml.MeanLoss(cfg.Model, params, cfg.Data); err == nil {
		res.FinalLoss = l
	}
	return res, nil
}
