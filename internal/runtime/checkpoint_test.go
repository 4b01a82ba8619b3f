package runtime_test

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/testkit"
)

// TestElasticCheckpointResume runs a checkpointed training to completion,
// then constructs a second master from the directory and continues for more
// iterations — the plain exercise of the durable-state wiring (the
// adversarial master-kill variants live in the recovery conformance table,
// internal/testkit).
func TestElasticCheckpointResume(t *testing.T) {
	fx := newFixture(t, 8)
	dir := filepath.Join(t.TempDir(), "ckpt")

	cfg := elasticConfig(fx, 1, 6)
	cfg.Optimizer = &ml.SGD{LR: 0.5, Momentum: 0.5}
	cfg.MinWorkers = 3
	cfg.CheckpointDir = dir
	cfg.SnapshotEvery = 2
	res, err := testkit.Start(t, fx, cfg, 3, nil).Run(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.StartIter != 0 || len(res.IterTimes) != 6 {
		t.Fatalf("fresh run: start %d with %d iterations", res.StartIter, len(res.IterTimes))
	}

	// The directory now holds the finished run's state; continuing it for
	// more iterations must pick up at iteration 6 with the journal's epochs
	// fenced below the new plans.
	state, err := checkpoint.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if state.Snap == nil || state.Snap.Iter != 6 || state.LastIter != 5 {
		t.Fatalf("recovered state %+v, want snapshot at iter 6 / last iter 5", state)
	}
	preMax := state.MaxEpoch()

	cfg2 := elasticConfig(fx, 1, 10)
	cfg2.Optimizer = &ml.SGD{LR: 0.5, Momentum: 0.5}
	cfg2.MinWorkers = 3
	cfg2.CheckpointDir = dir
	cfg2.SnapshotEvery = 2
	cfg2.Resume = true
	ma2 := testkit.Start(t, fx, cfg2, 0, nil)
	if ma2.Root.StartIter() != 6 {
		t.Fatalf("resumed StartIter = %d, want 6", ma2.Root.StartIter())
	}
	ma2.Dial(t, 3, nil)
	res2, err := ma2.Run(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res2.StartIter != 6 || len(res2.IterTimes) != 4 {
		t.Fatalf("resumed run: start %d with %d iterations, want 6 with 4", res2.StartIter, len(res2.IterTimes))
	}
	if res2.Groups[0].Epochs[0] <= preMax {
		t.Fatalf("resumed epoch %d not above pre-resume max %d", res2.Groups[0].Epochs[0], preMax)
	}
	final, err := checkpoint.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if final.LastIter != 9 {
		t.Fatalf("final journal records last iter %d, want 9", final.LastIter)
	}
}

// TestResumeAnchorPreservesEpochFence pins the double-crash case: a master
// that resumes and crashes again BEFORE creating any new plan must leave a
// checkpoint whose epoch fence still covers the first incarnation's epochs
// (the resume anchor snapshot is the only durable state in between).
func TestResumeAnchorPreservesEpochFence(t *testing.T) {
	fx := newFixture(t, 8)
	dir := filepath.Join(t.TempDir(), "ckpt")

	cfg := elasticConfig(fx, 1, 4)
	cfg.MinWorkers = 3
	cfg.CheckpointDir = dir
	cfg.SnapshotEvery = 2
	if _, err := testkit.Start(t, fx, cfg, 3, nil).Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	preMax := recoverMaxEpoch(t, dir)
	if preMax < 0 {
		t.Fatalf("first run recorded max epoch %d", preMax)
	}

	// Second incarnation: constructed from the checkpoint, then killed
	// before any training (its only durable write is the anchor snapshot).
	cfg2 := cfg
	cfg2.Resume = true
	tel := obs.New()
	cfg2.Obs = tel
	testkit.Start(t, fx, cfg2, 0, nil).Close()
	// The anchor is counted by the snapshot histogram, as in the sharded
	// runtime.
	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), obs.MSnapshotSeconds+"_count 1") {
		t.Fatalf("resumed bring-up: %s does not count the anchor snapshot", obs.MSnapshotSeconds)
	}

	if got := recoverMaxEpoch(t, dir); got != preMax {
		t.Fatalf("after anchor-only crash the fence is %d, want %d — a third incarnation would reuse live epochs", got, preMax)
	}
	// And a third incarnation still fences above it.
	cfg3 := cfg
	cfg3.Resume = true
	testkit.Start(t, fx, cfg3, 0, nil)
	// Its own resume anchor records the fence it recovered.
	if fence := recoverMaxEpoch(t, dir); fence != preMax {
		t.Fatalf("third incarnation recovered fence %d, want %d", fence, preMax)
	}
}

func recoverMaxEpoch(t *testing.T, dir string) int {
	t.Helper()
	st, err := checkpoint.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st.MaxEpoch()
}

// TestResumeRestoresEstimates: the learned throughput estimates are what a
// snapshot keeps for the next plan. A durable run whose first worker is 5×
// slower than the others must resume with a controller that already rates
// that worker below them, not one back at the uniform prior — also after an
// incarnation that resumed and crashed before its first snapshot, leaving
// only its resume anchor.
func TestResumeRestoresEstimates(t *testing.T) {
	for _, tc := range []struct {
		name       string
		anchorOnly int // incarnations that resume and close at once
	}{{"resume", 0}, {"anchor-only-crash", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t, 6)
			cfg := elasticConfig(fx, 1, 8)
			cfg.MinObservations = 1
			cfg.CheckpointDir = filepath.Join(t.TempDir(), "ckpt")
			cfg.SnapshotEvery = 4
			// The builder dials in order: worker i joins as member i+1.
			_, err := testkit.Start(t, fx, cfg, 3, func(i int, wc *runtime.ElasticWorkerConfig) {
				delay := time.Millisecond
				if i == 0 {
					delay *= 5
				}
				wc.DelayPerPartition = func(int) time.Duration { return delay }
			}).Run(10 * time.Second)
			if err != nil {
				t.Fatal(err)
			}

			cfg.Resume = true
			for i := 0; i < tc.anchorOnly; i++ {
				testkit.Start(t, fx, cfg, 0, nil).Close()
			}
			ma2 := testkit.Start(t, fx, cfg, 0, nil).Root
			rates := make([]float64, 3)
			for i := range rates {
				rates[i] = restoredRate(t, ma2, 0, i+1, cfg.MinObservations)
			}
			if rates[0] >= rates[1] || rates[0] >= rates[2] {
				t.Fatalf("resumed estimates %v: the slow member 1 is not rated below the others", rates)
			}
		})
	}
}
