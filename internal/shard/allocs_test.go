package shard_test

import (
	"math/rand"
	goruntime "runtime"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/shard"
	"github.com/hetgc/hetgc/internal/testkit"
)

// bytesCeiling bounds the bytes one training iteration allocates: a tenth of
// one dim-sized vector (800 KB), so a vector allocated each iteration shows
// unmistakably.
const bytesCeiling = 80 << 10

// TestAllocationCeiling holds the steady iteration of a flat cluster
// (4 workers, k = 8) and a two-group one (2 groups of 3 workers, k = 12) at
// the end-to-end benchmark's model size (dim 100,010) to an allocation
// ceiling. It counts over the whole process, the root and its in-process
// workers, as the benchmark's bench.allocs_per_iter does. Each shape trains a
// long and a short run after a warm-up one; the difference of the process's
// MemStats between them is the cost of the extra iterations alone, bring-up
// and teardown cancelled. A shape's mallocs ceiling sits about half again
// above its count on an idle box, which the same test reads up to a third
// higher while the rest of the suite runs beside it; a change that lowers the
// count lowers the ceiling. `make profile-live` runs it under the CPU
// profiler.
func TestAllocationCeiling(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation counts need a full-length run without the race detector")
	}
	const long, short = 240, 40
	shapes := []struct {
		name          string
		k, n          int
		grouped       bool
		mallocCeiling float64
	}{
		{"flat", 8, 4, false, 200},
		{"groups=2", 12, 6, true, 300},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			fx := modelSizedFixture(t, sh.k)
			config := func(iters int) shard.Config {
				cfg := fx.Config(1, iters)
				cfg.Optimizer = &ml.SGD{LR: 2e-6, Momentum: 0.9}
				cfg.IterTimeout = 30 * time.Second
				if sh.grouped {
					cfg.GroupSize, cfg.FanIn = 3, 2
					cfg.Throughputs = make([]float64, sh.n)
					for i := range cfg.Throughputs {
						cfg.Throughputs[i] = 1
					}
				} else {
					cfg.MinWorkers = sh.n
				}
				return cfg
			}
			run := func(iters int) goruntime.MemStats {
				t.Helper()
				l := testkit.Start(t, fx, config(iters), sh.n, nil)
				if _, err := l.Run(30 * time.Second); err != nil {
					t.Fatalf("%d iterations: %v", iters, err)
				}
				var ms goruntime.MemStats
				goruntime.ReadMemStats(&ms)
				return ms
			}
			base := run(short) // warm-up: pools, plan caches, lazy set-up
			atLong := run(long)
			atShort := run(short)
			extra := float64(long - short)
			mallocs := float64(int64(atLong.Mallocs-base.Mallocs)-int64(atShort.Mallocs-atLong.Mallocs)) / extra
			bytes := float64(int64(atLong.TotalAlloc-base.TotalAlloc)-int64(atShort.TotalAlloc-atLong.TotalAlloc)) / extra
			t.Logf("%.1f mallocs, %.0f B per iteration", mallocs, bytes)
			if mallocs > sh.mallocCeiling {
				t.Errorf("%.1f mallocs per iteration, ceiling %.0f", mallocs, sh.mallocCeiling)
			}
			if bytes > bytesCeiling {
				t.Errorf("%.0f B allocated per iteration, ceiling %d", bytes, bytesCeiling)
			}
		})
	}
}

// modelSizedFixture is k partitions of two samples each of the benchmark's
// model: softmax over 9,999 inputs and 10 classes.
func modelSizedFixture(t *testing.T, k int) *testkit.Fixture {
	t.Helper()
	data, err := ml.GaussianMixture(2*k, 9999, 10, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Split(k)
	if err != nil {
		t.Fatal(err)
	}
	return &testkit.Fixture{Model: &ml.Softmax{InputDim: 9999, NumClasses: 10}, Data: data, Parts: parts}
}
