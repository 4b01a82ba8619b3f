package runtime_test

import (
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/testkit"
)

// TestElasticWireFetchedShards runs a full elastic training where no worker
// holds local data: every shard travels over the master's data plane. The
// result must be bit-identical to the same run with local partitions —
// decode is exact, so the data path must not perturb a single bit. The run
// is pinned deterministic: s=0 makes every slot's upload part of the decode
// set, and huge MinObservations/DriftThreshold freeze the planner on the
// seeded initial strategy, so both runs sum identical floats in identical
// order.
func TestElasticWireFetchedShards(t *testing.T) {
	const k, s, iters, workers = 8, 0, 10, 4
	f := newFixture(t, k)

	run := func(wire bool) []float64 {
		cfg := elasticConfig(f, s, iters)
		cfg.MinObservations = 1 << 30
		cfg.DriftThreshold = 1e18
		cfg.MinWorkers = workers
		if wire {
			cfg.PartitionSource = func(p int) (*ml.Dataset, error) { return f.Parts[p], nil }
		}
		res, err := testkit.Start(t, f, cfg, workers, func(_ int, wc *runtime.ElasticWorkerConfig) {
			if wire {
				wc.PartitionData = nil
			}
		}).Run(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res.Params
	}

	local := run(false)
	remote := run(true)
	if len(local) != len(remote) {
		t.Fatalf("param dims differ: %d vs %d", len(local), len(remote))
	}
	for i := range local {
		if local[i] != remote[i] {
			t.Fatalf("param %d differs: wire-fetched %v, local %v", i, remote[i], local[i])
		}
	}
}

// TestWorkerWithoutDataNeedsServingMaster: dialing a master with no
// PartitionSource while carrying no local data must fail at the first
// assignment (not hang) — the not-served marker surfaces as a run error.
func TestWorkerWithoutDataNeedsServingMaster(t *testing.T) {
	const k, s = 4, 0
	f := newFixture(t, k)
	l := testkit.Start(t, f, elasticConfig(f, s, 2), 0, nil)
	master := l.Root
	errCh := make(chan error, 1)
	go func() {
		w, err := l.Worker(0, func(_ int, wc *runtime.ElasticWorkerConfig) { wc.PartitionData = nil })
		if err != nil {
			errCh <- err
			return
		}
		errCh <- w.Run()
	}()
	if err := master.WaitForWorkers(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = master.Run() }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("worker run succeeded without any data source")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("worker hung instead of failing on unserved partition")
	}
}

func TestReconnectPolicyRetriesDial(t *testing.T) {
	f := newFixture(t, 4)
	data := func(p int) (*ml.Dataset, error) { return f.Parts[p], nil }

	// Against a dead port, the policy burns every attempt (with backoff
	// between them) before failing.
	start := time.Now()
	_, err := runtime.DialElasticWorker("127.0.0.1:1", runtime.ElasticWorkerConfig{
		Model: f.Model, PartitionData: data,
		DialTimeout: 200 * time.Millisecond,
		Reconnect:   runtime.ReconnectPolicy{MaxAttempts: 3, Backoff: 30 * time.Millisecond},
	})
	if err == nil {
		t.Fatal("dial against dead port succeeded")
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("3 attempts with 30ms backoff returned after %v — retries not happening", elapsed)
	}

	// Zero value: a single attempt against the same dead port fails without
	// any backoff sleeps.
	start = time.Now()
	if _, err := runtime.DialElasticWorker("127.0.0.1:1", runtime.ElasticWorkerConfig{
		Model: f.Model, PartitionData: data,
		DialTimeout: 200 * time.Millisecond,
	}); err == nil {
		t.Fatal("zero-value policy should fail fast on a dead port")
	}

	// With a live master, a retrying dial still succeeds on the first try.
	master := testkit.Start(t, f, elasticConfig(f, 0, 1), 0, nil)
	w, err := master.Worker(0, func(_ int, wc *runtime.ElasticWorkerConfig) {
		wc.Reconnect = runtime.ReconnectPolicy{MaxAttempts: 5, Backoff: 20 * time.Millisecond}
	})
	if err != nil {
		t.Fatalf("retrying dial against live master: %v", err)
	}
	w.Close()
}
