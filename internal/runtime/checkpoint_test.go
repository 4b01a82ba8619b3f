package runtime

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
)

// TestElasticCheckpointResume runs a checkpointed training to completion,
// then constructs a second master from the directory and continues for more
// iterations — the in-package exercise of the durable-state wiring
// (the adversarial master-kill variants live in the cross-runtime
// conformance suite, internal/testkit).
func TestElasticCheckpointResume(t *testing.T) {
	fx := newElasticFixture(t, 8)
	dir := filepath.Join(t.TempDir(), "ckpt")

	cfg := fx.masterConfig(8, 1, 6)
	cfg.Optimizer = &ml.SGD{LR: 0.5, Momentum: 0.5}
	cfg.MinWorkers = 3
	cfg.CheckpointDir = dir
	cfg.SnapshotEvery = 2
	ma, err := NewElasticMaster(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		fx.spawnElasticWorker(t, ma.Addr(), &wg, nil)
	}
	if err := ma.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := ma.Run()
	wg.Wait()
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

	cfg2 := fx.masterConfig(8, 1, 10)
	cfg2.Optimizer = &ml.SGD{LR: 0.5, Momentum: 0.5}
	cfg2.MinWorkers = 3
	cfg2.CheckpointDir = dir
	cfg2.SnapshotEvery = 2
	cfg2.Resume = true
	ma2, err := NewElasticMaster(cfg2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if ma2.StartIter() != 6 {
		t.Fatalf("resumed StartIter = %d, want 6", ma2.StartIter())
	}
	var wg2 sync.WaitGroup
	for i := 0; i < 3; i++ {
		fx.spawnElasticWorker(t, ma2.Addr(), &wg2, nil)
	}
	if err := ma2.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res2, err := ma2.Run()
	wg2.Wait()
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
	fx := newElasticFixture(t, 8)
	dir := filepath.Join(t.TempDir(), "ckpt")

	cfg := fx.masterConfig(8, 1, 4)
	cfg.MinWorkers = 3
	cfg.CheckpointDir = dir
	cfg.SnapshotEvery = 2
	ma, err := NewElasticMaster(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		fx.spawnElasticWorker(t, ma.Addr(), &wg, nil)
	}
	if err := ma.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := ma.Run(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
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
	ma2, err := NewElasticMaster(cfg2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ma2.Close()
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
	ma3, err := NewElasticMaster(cfg3, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ma3.Close()
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
			fx := newElasticFixture(t, 6)
			cfg := fx.masterConfig(6, 1, 8)
			cfg.MinObservations = 1
			cfg.CheckpointDir = filepath.Join(t.TempDir(), "ckpt")
			cfg.SnapshotEvery = 4
			ma, err := NewElasticMaster(cfg, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				delay := time.Millisecond
				if i == 0 {
					delay *= 5
				}
				// Dial in order: worker i joins as member i+1.
				w, err := DialElasticWorker(ma.Addr(), ElasticWorkerConfig{
					Model:             fx.model,
					PartitionData:     func(p int) (*ml.Dataset, error) { return fx.parts[p], nil },
					DelayPerPartition: func(int) time.Duration { return delay },
				})
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = w.Run()
				}()
			}
			if err := ma.WaitForWorkers(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			_, err = ma.Run()
			ma.Close()
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}

			cfg.Resume = true
			for i := 0; i < tc.anchorOnly; i++ {
				crashed, err := NewElasticMaster(cfg, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				crashed.Close()
			}
			ma2, err := NewElasticMaster(cfg, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ma2.Close()
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
