// Recovery conformance: the crash class the churn scenario table cannot
// express — the MASTER process dies and is reconstructed from its
// checkpoint directory. The harness runs one cluster to a durably recorded
// iteration, kills it cold, optionally corrupts snapshot files, resumes a
// second cluster from the directory, and holds a root of one group and a
// root of several to the same guarantees:
//
//   - training completes exactly the iterations the recovered snapshot had
//     not folded in;
//   - workers rejoin their old member identities through the ordinary
//     ResumeID handshake against the recovered roster;
//   - plan epochs after resume are strictly above everything the journal
//     ever recorded, so stale pre-crash uploads (one worker deliberately
//     replays some) are fenced before decode;
//   - a corrupt newest snapshot falls back to the previous generation, and
//     a directory with no decodable snapshot fails construction with a
//     typed checkpoint error instead of silently restarting from scratch.
//
// Every worker but one runs the loop a worker process runs, runtime.Follow
// (what node.RunWorker runs): it survives the master's death and redials the
// slot's current address until the resumed cluster admits it under its old
// member ID. The one is slot 0, a scripted worker that follows the same way
// and replays a pre-crash gradient after it rejoins.
package testkit

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/runtime"
	"github.com/hetgc/hetgc/internal/shard"
)

// RecoveryScenario is one master-crash script.
type RecoveryScenario struct {
	// Name labels the subtest.
	Name string
	// K, S, Workers and Iters mirror Scenario.
	K, S, Workers, Iters int
	// GroupSize shards workers into coding groups at the Grouped layout.
	GroupSize int
	// SnapshotEvery is the checkpoint cadence handed to the root.
	SnapshotEvery int
	// KillAfterIter kills the first cluster once the journal durably
	// records this iteration as completed.
	KillAfterIter int
	// CorruptNewest flips bytes in the newest snapshot before resuming:
	// recovery must fall back to the previous generation.
	CorruptNewest bool
	// CorruptAll corrupts every snapshot: resuming must fail with a typed
	// checkpoint error (no silent restart-from-scratch).
	CorruptAll bool
	// IterTimeout bounds one collection attempt; InitialRate seeds the
	// control-plane priors.
	IterTimeout time.Duration
	InitialRate float64
}

// RecoveryScenarios is the table both layouts are held to.
func RecoveryScenarios() []RecoveryScenario {
	base := RecoveryScenario{
		K: 8, S: 1, Workers: 6, GroupSize: 3, Iters: 30,
		SnapshotEvery: 3, KillAfterIter: 10,
		IterTimeout: 5 * time.Second, InitialRate: 500,
	}
	kill := base
	kill.Name = "master-kill-resume"
	corruptNewest := base
	corruptNewest.Name = "corrupt-newest-snapshot"
	corruptNewest.CorruptNewest = true
	corruptAll := base
	corruptAll.Name = "corrupt-all-snapshots"
	corruptAll.CorruptAll = true
	return []RecoveryScenario{kill, corruptNewest, corruptAll}
}

// config is the root sc runs against at layout lay: it checkpoints into
// dir, resuming from it when resume is set. The control plane is churn-only,
// so every post-resume epoch bump is the crash recovery's, not drift's, and
// SGD carries momentum, so optimizer state must survive the crash.
func (sc *RecoveryScenario) config(fx *Fixture, lay Layout, dir string, resume bool) shard.Config {
	cfg := fx.Config(sc.S, sc.Iters)
	cfg.Optimizer = &ml.SGD{LR: 0.5, Momentum: 0.5}
	cfg.IterTimeout = sc.IterTimeout
	cfg.DriftThreshold = 2.0
	cfg.CooldownIters = 1 << 20
	cfg.InitialRate = sc.InitialRate
	cfg.DurabilityConfig = clustercfg.DurabilityConfig{CheckpointDir: dir, SnapshotEvery: sc.SnapshotEvery, Resume: resume}
	lay.shape(&cfg, sc.Workers, sc.GroupSize, sc.InitialRate)
	return cfg
}

// RunRecoveryConformance executes the recovery scenario table against a
// root at layout lay.
func RunRecoveryConformance(t *testing.T, lay Layout) {
	for _, sc := range RecoveryScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			runRecoveryScenario(t, &sc, lay)
		})
	}
}

func runRecoveryScenario(t *testing.T, sc *RecoveryScenario, lay Layout) {
	fx := NewFixture(t, sc.K, 12, 300)
	dir := filepath.Join(t.TempDir(), "ckpt")

	cl, err := Open(fx, sc.config(fx, lay, dir, false))
	if err != nil {
		t.Fatalf("fresh cluster: %v", err)
	}
	defer cl.Close()

	pool := startRecoveryWorkers(sc.Workers, fx, cl.Addrs(sc.Workers))
	defer pool.stopAll()

	// Phase A: train until KillAfterIter is durably journaled, then kill
	// the master cold — no goodbye frames, no final snapshot.
	runDone := make(chan error, 1)
	go func() {
		_, err := cl.Run(20 * time.Second)
		runDone <- err
	}()
	if !WaitDurableIter(dir, sc.KillAfterIter, 60*time.Second) {
		cl.Close()
		<-runDone
		t.Fatalf("iteration %d never became durable", sc.KillAfterIter)
	}
	cl.Close()
	// The dead master's ports are free for anyone to bind: stop dialing them.
	pool.retarget(nil)
	if err := <-runDone; err == nil {
		t.Fatalf("first run completed despite the kill — KillAfterIter %d too close to Iters %d", sc.KillAfterIter, sc.Iters)
	}

	if sc.CorruptAll {
		corruptSnapshots(t, dir, -1)
		if _, err := Open(fx, sc.config(fx, lay, dir, true)); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("resume over all-corrupt snapshots: %v, want checkpoint.ErrCorrupt", err)
		}
		return
	}
	if sc.CorruptNewest {
		corruptSnapshots(t, dir, 1)
	}

	// What the resumed master must see: the decodable snapshot's iteration
	// and the max epoch across snapshot + journals.
	state, err := checkpoint.Recover(dir)
	if err != nil {
		t.Fatalf("recover after crash: %v", err)
	}
	if state.Snap == nil {
		t.Fatalf("no snapshot recovered after %d durable iterations", sc.KillAfterIter)
	}
	preMaxEpoch := state.MaxEpoch()
	expectStart := state.Snap.Iter

	// Phase B: resume. The workers are still dialing; point them at the new
	// addresses.
	cl2, err := Open(fx, sc.config(fx, lay, dir, true))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer cl2.Close()
	pool.retarget(cl2.Addrs(sc.Workers))
	out, err := cl2.Run(20 * time.Second)
	cl2.Close()
	pool.stopAll()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	if out.Iters != sc.Iters-expectStart {
		t.Errorf("resumed run executed %d iterations, want %d (resume from iter %d of %d)",
			out.Iters, sc.Iters-expectStart, expectStart, sc.Iters)
	}
	if out.FinalEpoch <= preMaxEpoch {
		t.Errorf("final epoch %d not above the pre-crash max %d — pre-crash uploads are not fenced", out.FinalEpoch, preMaxEpoch)
	}
	if out.StaleEpochRejected == 0 {
		t.Errorf("no stale-epoch uploads rejected — the pre-crash replay was never fenced")
	}
	if out.Joins < sc.Workers {
		t.Errorf("resumed run admitted %d joins, want ≥ %d", out.Joins, sc.Workers)
	}
	for i, p := range out.Params {
		if math.IsNaN(p) || math.IsInf(p, 0) || p > 1e6 || p < -1e6 {
			t.Errorf("poisoned or divergent parameter %v at %d after resume", p, i)
			break
		}
	}
	pool.checkIdentities(t, state)
}

// WaitDurableIter polls the checkpoint directory until the journal records
// iteration `iter` as completed and reports whether it did within timeout.
// Reading concurrently with the writer is safe: recovery observes a
// consistent prefix.
func WaitDurableIter(dir string, iter int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st, err := checkpoint.Recover(dir); err == nil && st.LastIter >= iter {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// corruptSnapshots flips bytes in the newest n snapshot files (all of them
// when n < 0).
func corruptSnapshots(t *testing.T, dir string, n int) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no snapshots to corrupt in %s (%v)", dir, err)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	if n < 0 || n > len(paths) {
		n = len(paths)
	}
	for _, p := range paths[:n] {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := len(data) / 2; i < len(data)/2+16 && i < len(data); i++ {
			data[i] ^= 0xa5
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recoveryPool runs one worker per slot, each following its slot's current
// address across the crash.
type recoveryPool struct {
	wg     sync.WaitGroup
	stop   chan struct{}
	halt   sync.Once
	addrs  atomic.Value // []string, slot-indexed
	ids    [][]int      // by slot: the member ID of each admission, in order
	replay WorkerRecord // slot 0's
}

// startRecoveryWorkers launches the pool. Slot 0 is the adversary, a
// scripted worker: after any reconnect it replays a gradient tagged with
// epoch 0 — the epoch its pre-crash uploads carried — alongside its honest
// work, so the harness can assert the resume fence engaged. Every other slot
// runs the shipped follow loop (runtime.Follow, what node.RunWorker runs)
// with the worker Live.Worker builds at 2 ms per partition.
func startRecoveryWorkers(workers int, fx *Fixture, addrs []string) *recoveryPool {
	pool := &recoveryPool{stop: make(chan struct{}), ids: make([][]int, workers)}
	pool.retarget(addrs)
	cfg := fx.workerConfig()
	PerPart(2*time.Millisecond)(0, &cfg)
	pool.wg.Add(workers)
	go func() {
		defer pool.wg.Done()
		runScripted(func() string { return pool.addr(0) }, Behavior{ReplayAfterRejoin: true}, fx, new(atomic.Int64), &pool.replay, pool.stop)
	}()
	for slot := 1; slot < workers; slot++ {
		slot := slot
		go func() {
			defer pool.wg.Done()
			dial := func() []string {
				if a := pool.addr(slot); a != "" {
					return []string{a}
				}
				return nil
			}
			joined := func(id int) { pool.ids[slot] = append(pool.ids[slot], id) }
			_ = runtime.Follow(cfg, dial, 0, joined, pool.stop) // nil: no cycle bound
		}()
	}
	return pool
}

// retarget points every slot at a new cluster's addresses; nil leaves the
// workers waiting for one.
func (p *recoveryPool) retarget(addrs []string) {
	p.addrs.Store(append([]string(nil), addrs...))
}

// addr is slot's current address, "" while the pool waits for a cluster.
func (p *recoveryPool) addr(slot int) string {
	if addrs := p.addrs.Load().([]string); len(addrs) > 0 {
		return addrs[slot]
	}
	return ""
}

// stopAll ends the dial loops (workers blocked in Recv exit when the
// cluster closes their connections). Idempotent.
func (p *recoveryPool) stopAll() {
	p.halt.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// checkIdentities asserts that every worker that reconnected after the
// crash resumed the member identity it held before it, and that the
// identity was one the recovered roster had reserved. Call it after stopAll.
func (p *recoveryPool) checkIdentities(t *testing.T, state *checkpoint.State) {
	t.Helper()
	reserved := make(map[int]bool)
	for _, ids := range state.GroupMembers {
		for _, id := range ids {
			reserved[id] = true
		}
	}
	if p.replay.RejoinID > 0 {
		p.ids[0] = []int{p.replay.ID, p.replay.RejoinID}
	}
	resumed := 0
	for slot, ids := range p.ids {
		if len(ids) < 2 {
			continue // never reconnected (e.g. corrupt-all scenario path)
		}
		resumed++
		for _, id := range ids[1:] {
			if id != ids[0] {
				t.Errorf("slot %d: reconnect resumed member %d, want its original identity %d", slot, id, ids[0])
			}
		}
		if !reserved[ids[0]] {
			t.Errorf("slot %d: identity %d was not reserved by the recovered roster %v", slot, ids[0], state.GroupMembers)
		}
	}
	if resumed == 0 {
		t.Errorf("no worker ever rejoined after the crash")
	}
}
