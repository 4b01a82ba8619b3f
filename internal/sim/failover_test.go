package sim

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/ml"
)

// trainingBase couples the churn-heavy crash schedule with a real model and
// a momentum optimizer: kills, joins and replans land while real optimizer
// steps are being taken, and a lost or duplicated step corrupts not just
// the params but the velocity vector every later step compounds.
func trainingBase(t *testing.T) ElasticSimConfig {
	t.Helper()
	cfg := crashBase()
	data, err := ml.GaussianMixture(cfg.K*12, 4, 3, 3, rand.New(rand.NewSource(100)))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Model = &ml.Softmax{InputDim: 4, NumClasses: 3}
	cfg.Data = data
	cfg.Optimizer = &ml.SGD{LR: 0.5, Momentum: 0.9}
	return cfg
}

// TestTrainingSimCheckpointingDoesNotPerturb pins that write-through
// checkpointing of params and optimizer state adds no behavioural drift: a
// checkpointed training run is bit-identical to a bare one.
func TestTrainingSimCheckpointingDoesNotPerturb(t *testing.T) {
	bare, err := RunElastic(trainingBase(t))
	if err != nil {
		t.Fatal(err)
	}
	ck := trainingBase(t)
	ck.CheckpointDir = filepath.Join(t.TempDir(), "ckpt")
	ck.SnapshotEvery = 3
	with, err := RunElastic(ck)
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.Params) == 0 || len(bare.Params) != len(with.Params) {
		t.Fatalf("param dims %d vs %d", len(bare.Params), len(with.Params))
	}
	for i := range bare.Params {
		if bare.Params[i] != with.Params[i] {
			t.Fatalf("param %d drifted under checkpointing: %v vs %v", i, with.Params[i], bare.Params[i])
		}
	}
	loss0, err := ml.MeanLoss(ck.Model, ck.Model.InitParams(nil), ck.Data)
	if err != nil {
		t.Fatal(err)
	}
	lossT, err := ml.MeanLoss(ck.Model, with.Params, ck.Data)
	if err != nil {
		t.Fatal(err)
	}
	if lossT >= loss0 {
		t.Fatalf("training did not reduce the loss: %v -> %v", loss0, lossT)
	}
}

// TestStandbyTakeoverBitIdenticalParams is the co-simulation proof of the
// whole failover story: the root crashes cold at iteration k holding the
// lease, a warm standby tails the directory and promotes once the lease
// expires, and the successor — acquiring the next generation — finishes
// training to final params bit-identical to an uninterrupted run. Any lost
// or duplicated optimizer step would break the equality.
func TestStandbyTakeoverBitIdenticalParams(t *testing.T) {
	for _, crashAt := range []int{5, 17, 31} {
		un, err := RunElastic(trainingBase(t))
		if err != nil {
			t.Fatal(err)
		}

		dir := filepath.Join(t.TempDir(), "ckpt")
		crashed := trainingBase(t)
		crashed.CheckpointDir = dir
		crashed.SnapshotEvery = 4
		crashed.LeaseTTL = 250 * time.Millisecond
		crashed.CrashAtIter = crashAt
		partial, err := RunElastic(crashed)
		if err != nil {
			t.Fatalf("crash at %d: %v", crashAt, err)
		}
		if !partial.Crashed || partial.RootGen != 1 {
			t.Fatalf("crash at %d: Crashed=%v gen=%d", crashAt, partial.Crashed, partial.RootGen)
		}

		// The standby tails the directory until the dead root's lease
		// expires; the promotion hands over the freshest durable state.
		sb := ha.NewStandby(ha.StandbyConfig{DurabilityConfig: clustercfg.DurabilityConfig{CheckpointDir: dir}, Poll: 20 * time.Millisecond})
		prom, err := sb.Run(nil)
		if err != nil {
			t.Fatalf("crash at %d: standby: %v", crashAt, err)
		}
		if prom.Deposed == nil || prom.Deposed.Gen != 1 {
			t.Fatalf("crash at %d: deposed token %+v", crashAt, prom.Deposed)
		}
		if prom.State == nil || prom.State.LastIter != crashAt-1 {
			t.Fatalf("crash at %d: standby tailed LastIter %v, want %d", crashAt, prom.State, crashAt-1)
		}

		resumed := trainingBase(t)
		resumed.CheckpointDir = dir
		resumed.SnapshotEvery = 4
		resumed.LeaseTTL = 30 * time.Second
		resumed.Holder = "sim-standby"
		resumed.Resume = true
		res, err := RunElastic(resumed)
		if err != nil {
			t.Fatalf("takeover after crash at %d: %v", crashAt, err)
		}
		if res.RootGen != 2 {
			t.Fatalf("crash at %d: successor got generation %d, want 2", crashAt, res.RootGen)
		}
		if wantStart := (crashAt / 4) * 4; res.StartIter != wantStart {
			t.Fatalf("crash at %d: resumed at iter %d, want %d", crashAt, res.StartIter, wantStart)
		}

		if len(res.Params) != len(un.Params) {
			t.Fatalf("crash at %d: param dims %d vs %d", crashAt, len(res.Params), len(un.Params))
		}
		for i := range un.Params {
			if res.Params[i] != un.Params[i] {
				t.Fatalf("crash at %d: param %d not bit-identical after takeover: %v vs %v",
					crashAt, i, res.Params[i], un.Params[i])
			}
		}
	}
}

// TestZombieStoreRefusesStaleGeneration pins the journal side of fencing: a
// store guarded by a lease accepts appends while the lease is the highest
// generation and refuses them typed — ErrFenced — the moment a successor
// claims the directory.
func TestZombieStoreRefusesStaleGeneration(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	a, err := ha.Acquire(dir, "a", "", 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.SetGuard(a.Check)
	if err := store.AppendIter(0, 0, 1); err != nil {
		t.Fatalf("append under a live lease: %v", err)
	}

	// The holder goes quiet; after expiry a successor claims generation 2.
	time.Sleep(120 * time.Millisecond)
	b, err := ha.Acquire(dir, "b", "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if err := store.AppendIter(1, 0, 2); !errors.Is(err, ha.ErrFenced) {
		t.Fatalf("stale-generation append = %v, want ha.ErrFenced", err)
	}
	if err := store.WriteSnapshot(&checkpoint.Snapshot{Iter: 2, Epoch: -1}); !errors.Is(err, ha.ErrFenced) {
		t.Fatalf("stale-generation snapshot = %v, want ha.ErrFenced", err)
	}
}
