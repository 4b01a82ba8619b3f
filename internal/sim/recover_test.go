package sim

import (
	"errors"
	"path/filepath"
	"testing"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/straggler"
)

// crashBase is a churn-heavy schedule: speed drift, a kill, a join and a
// rejoin all land while checkpoints are being cut, so the resumed run must
// reconstruct plans, estimates and membership exactly mid-story.
func crashBase() ElasticSimConfig {
	return ElasticSimConfig{
		K: 8, S: 1,
		InitialRates: []float64{500, 400, 300, 500},
		Events: []ChurnEvent{
			{Iter: 6, Kind: SpeedStep, Member: 2, Factor: 0.1},
			{Iter: 10, Kind: Join, Rate: 450},
			{Iter: 14, Kind: Kill, Member: 3},
			{Iter: 22, Kind: Rejoin, Member: 3, Rate: 350},
			{Iter: 26, Kind: SpeedStep, Member: 1, Factor: 2.0},
		},
		Iterations:      36,
		Alpha:           0.5,
		DriftThreshold:  0.4,
		MinObservations: 2,
		CooldownIters:   3,
		Seed:            11,
	}
}

// TestCrashResumeBitIdentical is the co-simulation proof of the checkpoint
// subsystem: crash at iteration k, resume from the directory, and the
// stitched trajectory — times, epochs, membership — is bit-identical to the
// uninterrupted run for the same seed.
func TestCrashResumeBitIdentical(t *testing.T) {
	// The second row draws straggler delays and jitter from the stream every
	// iteration: resume must land on the stream's position after them.
	noisy := func() ElasticSimConfig {
		cfg := crashBase()
		cfg.Injector = straggler.Fixed{Count: 1, Delay: 0.01}
		cfg.FluctuationStd = 0.05
		return cfg
	}
	for _, base := range []func() ElasticSimConfig{crashBase, noisy} {
		testCrashResume(t, base)
	}
}

func testCrashResume(t *testing.T, base func() ElasticSimConfig) {
	t.Helper()
	for _, crashAt := range []int{5, 17, 31} {
		un, err := RunElastic(base())
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "ckpt")
		crashed := base()
		crashed.CheckpointDir = dir
		crashed.SnapshotEvery = 4
		crashed.CrashAtIter = crashAt
		partial, err := RunElastic(crashed)
		if err != nil {
			t.Fatalf("crash at %d: %v", crashAt, err)
		}
		if !partial.Crashed || len(partial.Times) != crashAt {
			t.Fatalf("crash at %d: Crashed=%v with %d times", crashAt, partial.Crashed, len(partial.Times))
		}

		resumed := base()
		resumed.CheckpointDir = dir
		resumed.SnapshotEvery = 4
		resumed.Resume = true
		res, err := RunElastic(resumed)
		if err != nil {
			t.Fatalf("resume after crash at %d: %v", crashAt, err)
		}
		wantStart := (crashAt / 4) * 4 // the newest snapshot boundary
		if res.StartIter != wantStart {
			t.Fatalf("crash at %d: resumed at iter %d, want %d", crashAt, res.StartIter, wantStart)
		}
		if got := res.StartIter + len(res.Times); got != base().Iterations {
			t.Fatalf("crash at %d: resumed run covers %d iterations", crashAt, got)
		}

		// Stitch crashed[0:start) + resumed[start:) and demand equality with
		// the uninterrupted trajectory, bit for bit.
		times := append(append([]float64(nil), partial.Times[:res.StartIter]...), res.Times...)
		epochs := append(append([][]int(nil), partial.Epochs[:res.StartIter]...), res.Epochs...)
		counts := append(append([]int(nil), partial.MemberCounts[:res.StartIter]...), res.MemberCounts...)
		if len(times) != len(un.Times) {
			t.Fatalf("crash at %d: stitched %d iterations, uninterrupted %d", crashAt, len(times), len(un.Times))
		}
		for i := range un.Times {
			if times[i] != un.Times[i] || epochs[i][0] != un.Epochs[i][0] || counts[i] != un.MemberCounts[i] {
				t.Fatalf("crash at %d: iteration %d diverged: time %v vs %v, epoch %d vs %d, members %d vs %d",
					crashAt, i, times[i], un.Times[i], epochs[i][0], un.Epochs[i][0], counts[i], un.MemberCounts[i])
			}
		}
		// The overlap the resumed run re-executed (start..crashAt) must also
		// match what the crashed run had already produced — exact recovery,
		// not merely consistent continuation.
		for i := res.StartIter; i < crashAt; i++ {
			if res.Times[i-res.StartIter] != partial.Times[i] {
				t.Fatalf("crash at %d: re-executed iteration %d diverged from pre-crash history", crashAt, i)
			}
		}
	}
}

// TestCheckpointingDoesNotPerturb pins that a fully checkpointed,
// uninterrupted run is bit-identical to a bare one: the counting RNG source
// and the write-through add no behavioural drift.
func TestCheckpointingDoesNotPerturb(t *testing.T) {
	bare, err := RunElastic(crashBase())
	if err != nil {
		t.Fatal(err)
	}
	ck := crashBase()
	ck.CheckpointDir = t.TempDir() + "/ckpt"
	ck.SnapshotEvery = 3
	with, err := RunElastic(ck)
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.Times) != len(with.Times) {
		t.Fatalf("length drift: %d vs %d", len(bare.Times), len(with.Times))
	}
	for i := range bare.Times {
		if bare.Times[i] != with.Times[i] || bare.Epochs[i][0] != with.Epochs[i][0] {
			t.Fatalf("iteration %d drifted under checkpointing", i)
		}
	}
}

// TestResumeRequiresState pins the typed failure modes.
func TestResumeRequiresState(t *testing.T) {
	cfg := crashBase()
	cfg.Resume = true
	if _, err := RunElastic(cfg); !errors.Is(err, ErrBadChurn) {
		t.Fatalf("resume without dir: %v, want ErrBadChurn", err)
	}
	cfg.CheckpointDir = filepath.Join(t.TempDir(), "empty")
	if _, err := RunElastic(cfg); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("resume from missing dir: %v, want ErrNoCheckpoint", err)
	}
}
