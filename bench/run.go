package main

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"

	"github.com/hetgc/hetgc/internal/ml"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the contract's JSON line plus what the
// summary file needs to group runs.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Correct  bool   `json:"correct"`
	// Attempted counts the measured iterations plus one per correctness
	// check; Failed counts iterations that errored or ran into IterTimeout
	// (a timeout is the only way the runtimes retry), workers lost mid-run
	// and failed checks.
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"samples"` // measured Step intervals
	Metrics   map[string]metric `json:"metrics"`
	Problems  []string          `json:"problems,omitempty"`
}

// sizing is what a run's length is made of. The benchmark always uses
// fullSizing; the harness's own test shrinks it.
type sizing struct {
	measure time.Duration // total measured time, split evenly over the rounds
	warm    int           // iterations discarded at the start of each round (>= 1)
	// An untraced run brings the cluster up bringUps+rounds times. The first
	// bringUps stop after setupLen iterations; each of the rounds warms up and
	// then measures for measure/rounds. Every bring-up is one setup_s sample,
	// and the rounds' Step intervals are pooled: which worker's upload lands
	// last, how the heap settles against the GC — a cluster instance falls
	// into one of a few paces that differ by several percent, and pooling
	// instances keeps one run from reporting one pace. A traced run is a
	// single round of the full length.
	bringUps int
	rounds   int
	setupLen int
}

func fullSizing(seconds int) sizing {
	return sizing{measure: time.Duration(seconds) * time.Second, warm: 50, bringUps: 5, rounds: 4, setupLen: 3}
}

// traceCap bounds the in-memory trace ring; a run that outgrows it keeps its
// most recent traceCap iterations.
const traceCap = 1 << 16

// measureWorkload runs one workload once. Untraced, it reports the
// end-to-end metrics; traced, the per-layer metrics, and it returns the
// collected trace for the span dump and the budget table.
func measureWorkload(w *workload, seed int64, sz sizing, traced bool) (*result, *traceData, error) {
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp("", "hetgc-bench-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	res := &result{Workload: w.name, Seed: seed, Traced: traced, Metrics: map[string]metric{}}
	fail := func(n int, format string, args ...any) {
		res.Failed += n
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	base := goruntime.NumGoroutine()
	rest := func() {
		if !settle(base) {
			fail(1, "%d goroutines still running two seconds after a teardown, %d before it", goruntime.NumGoroutine(), base)
		}
	}

	// The durable workload resumes: a short fresh run fills a checkpoint
	// directory once, and every bring-up resumes its own copy of it.
	populated, priorSteps := "", 0
	var ids []int
	if w.durable {
		populated = filepath.Join(tmp, "populated")
		clock := &stepClock{inner: &ml.SGD{LR: w.lr, Momentum: momentum}, limit: unbounded}
		out := (&bringUp{w: w, in: in, seed: seed, clock: clock, iterations: populateIters, dir: populated}).run()
		if out.err != nil || out.failures > 0 || len(clock.returns) != populateIters {
			return nil, nil, fmt.Errorf("populate run: %d of %d iterations, %d failures: %v", len(clock.returns), populateIters, out.failures, out.err)
		}
		ids, priorSteps = out.ids, populateIters
		rest()
	}
	bring := func(i int, clock *stepClock, td *traceData) (*outcome, error) {
		b := &bringUp{w: w, in: in, seed: seed, clock: clock, iterations: unbounded}
		if td != nil {
			b.tel, b.recs = td.tel, td.recs
		}
		if w.durable {
			b.dir, b.resume, b.resumeIDs = filepath.Join(tmp, fmt.Sprintf("resume-%d", i)), true, ids
			if err := copyDir(populated, b.dir); err != nil {
				return nil, err
			}
		}
		return b.run(), nil
	}

	var setups, intervals []float64
	var window float64
	var td *traceData
	rounds, short := sz.rounds, sz.bringUps
	if traced {
		rounds, short = 1, 0
	}
	for i := 0; i < short+rounds; i++ {
		clock := &stepClock{inner: &ml.SGD{LR: w.lr, Momentum: momentum}}
		if i < short {
			clock.limit = sz.setupLen
		} else {
			clock.warm, clock.measure = sz.warm, sz.measure/time.Duration(rounds)
		}
		if traced {
			td = newTraceData(w, clock, priorSteps, sz.warm)
		}
		out, err := bring(i, clock, td)
		if err != nil {
			return nil, nil, err
		}
		if len(clock.returns) == 0 || (i >= short && len(clock.returns) <= sz.warm) {
			return nil, nil, fmt.Errorf("bring-up %d completed %d iterations: %v", i, len(clock.returns), out.err)
		}
		if out.err != nil {
			fail(0, "bring-up %d: %v", i, out.err)
		}
		res.Failed += out.failures
		rest()
		setups = append(setups, clock.returns[0].Sub(out.start).Seconds())
		if i < short {
			continue
		}
		intervals = append(intervals, stepIntervals(clock.returns, sz.warm)...)
		window += clock.returns[len(clock.returns)-1].Sub(clock.returns[sz.warm-1]).Seconds()
		for _, msg := range checkParams(w, in, out.params, priorSteps+len(clock.returns)) {
			fail(1, "%s", msg)
		}
		res.Attempted++
		if traced {
			td.finish(out.ids)
		}
	}

	res.Samples = len(intervals)
	res.Attempted += len(intervals)
	for _, d := range intervals {
		if d >= iterTimeout.Seconds() {
			fail(1, "an iteration took %.1f s: it ran into IterTimeout and was retried", d)
		}
	}
	if traced {
		for name, m := range td.layerMetrics(intervals) {
			res.Metrics[name] = m
		}
		if msg := td.rootCoverage(intervals); msg != "" {
			fail(1, "%s", msg)
		}
		res.Attempted++ // the coverage check
		res.Metrics["fail_ratio"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	} else {
		res.Metrics["iters_per_s"] = metric{float64(len(intervals)) / window, "1/s"}
		res.Metrics["iter_p50_ms"] = metric{median(intervals) * 1e3, "ms"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}
	res.Correct = res.Failed == 0
	return res, td, nil
}

// stepIntervals turns Step-return stamps into the measured Step-to-Step
// intervals in seconds: the first one starts at the return that ended
// warm-up.
func stepIntervals(returns []time.Time, warm int) []float64 {
	var out []float64
	for i := warm; i < len(returns); i++ {
		out = append(out, returns[i].Sub(returns[i-1]).Seconds())
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and which percentile that is; with fewer than eleven
// samples it falls back to the maximum.
func tail(xs []float64) (value, percentile float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n < 11 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}
