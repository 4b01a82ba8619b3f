// HA conformance: the failover class the recovery table cannot express —
// the ROOT holds a lease, and its death or deposition must be survived live,
// not merely recovered from. Two scenarios, one table, a lease-holding root
// at either layout:
//
//   - standby-takeover-mid-iteration: the root is killed cold mid-training;
//     a warm standby tailing the directory promotes on lease expiry, and a
//     successor resumed at the next generation finishes the job with the
//     same reconnecting workers.
//   - zombie-root-fenced-after-takeover: the root stops renewing but keeps
//     training; once a successor claims the next generation the zombie's
//     run must fail typed with ha.ErrFenced — naming the usurping
//     generation — while training completes under the new root.
//
// Workers are the recovery harness's: runtime.Follow, the loop a worker
// process runs, in every slot but the scripted slot 0. They survive
// whichever control-plane process dies and follow the retargeted addresses.
package testkit

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/shard"
)

// HAScenario parameterises one failover script.
type HAScenario struct {
	// Name labels the subtest.
	Name string
	// K, S, Workers, Iters and GroupSize mirror RecoveryScenario.
	K, S, Workers, Iters int
	GroupSize            int
	// SnapshotEvery is the checkpoint cadence.
	SnapshotEvery int
	// LeaseTTL is the root lease's time-to-live: short enough that a test
	// waits on a real expiry, long enough that a healthy root never lapses
	// between renewals.
	LeaseTTL time.Duration
	// DisruptAfterIter fires the scenario's disruption (kill or renewal
	// suspension) once this iteration is durable.
	DisruptAfterIter int
	// IterTimeout bounds one collection attempt; InitialRate seeds the
	// control-plane priors.
	IterTimeout time.Duration
	InitialRate float64
}

// config is the root sc runs against at layout lay: the recovery table's
// root (a churn-only control plane, so failover scenarios script their own
// disruptions and do not race the drift trigger) under the lease in dir,
// claimed in holder's name.
func (sc *HAScenario) config(fx *Fixture, lay Layout, dir string, resume bool, holder string) shard.Config {
	rs := RecoveryScenario{
		K: sc.K, S: sc.S, Workers: sc.Workers, Iters: sc.Iters, GroupSize: sc.GroupSize,
		SnapshotEvery: sc.SnapshotEvery, IterTimeout: sc.IterTimeout, InitialRate: sc.InitialRate,
	}
	cfg := rs.config(fx, lay, dir, resume)
	cfg.HAConfig = clustercfg.HAConfig{LeaseTTL: sc.LeaseTTL, Holder: holder}
	return cfg
}

func haBase(name string) HAScenario {
	return HAScenario{
		Name: name, K: 8, S: 1, Workers: 6, GroupSize: 3, Iters: 30,
		SnapshotEvery: 3, LeaseTTL: 400 * time.Millisecond, DisruptAfterIter: 8,
		IterTimeout: 5 * time.Second, InitialRate: 500,
	}
}

// RunHAConformance executes the failover scenarios against a root at
// layout lay.
func RunHAConformance(t *testing.T, lay Layout) {
	t.Run("standby-takeover-mid-iteration", func(t *testing.T) {
		runStandbyTakeover(t, lay)
	})
	t.Run("zombie-root-fenced-after-takeover", func(t *testing.T) {
		runZombieFenced(t, lay)
	})
}

// checkFiniteParams is the universal sanity floor on a finished run.
func checkFiniteParams(t *testing.T, params []float64) {
	t.Helper()
	if len(params) == 0 {
		t.Error("run produced no parameters")
	}
	for i, p := range params {
		if math.IsNaN(p) || math.IsInf(p, 0) || p > 1e6 || p < -1e6 {
			t.Errorf("poisoned or divergent parameter %v at %d", p, i)
			return
		}
	}
}

func runStandbyTakeover(t *testing.T, lay Layout) {
	sc := haBase("standby-takeover-mid-iteration")
	fx := NewFixture(t, sc.K, 12, 300)
	dir := filepath.Join(t.TempDir(), "ckpt")

	a, err := Open(fx, sc.config(fx, lay, dir, false, "ha-root-a"))
	if err != nil {
		t.Fatalf("first root: %v", err)
	}
	defer a.Close()
	if a.Root.RootGen() != 1 {
		t.Fatalf("first root holds generation %d, want 1", a.Root.RootGen())
	}
	pool := startRecoveryWorkers(sc.Workers, fx, a.Addrs(sc.Workers))
	defer pool.stopAll()

	// The standby tails the directory from before the crash: its promotion
	// must hand over the freshest durable state, not a stale copy.
	sb := ha.NewStandby(ha.StandbyConfig{DurabilityConfig: clustercfg.DurabilityConfig{CheckpointDir: dir}, Poll: 25 * time.Millisecond})
	promc := make(chan *ha.Promotion, 1)
	sbErrc := make(chan error, 1)
	go func() {
		prom, err := sb.Run(nil)
		promc <- prom
		sbErrc <- err
	}()

	runDone := make(chan error, 1)
	go func() {
		_, err := a.Run(20 * time.Second)
		runDone <- err
	}()
	if !WaitDurableIter(dir, sc.DisruptAfterIter, 60*time.Second) {
		a.Close()
		<-runDone
		t.Fatalf("iteration %d never became durable", sc.DisruptAfterIter)
	}
	a.Close() // cold: no goodbye frames, the lease is left to expire
	// The dead root's ports are free for anyone to bind: stop dialing them.
	pool.retarget(nil)
	if err := <-runDone; err == nil {
		t.Fatal("first run completed despite the kill")
	}

	var prom *ha.Promotion
	select {
	case prom = <-promc:
		if err := <-sbErrc; err != nil {
			t.Fatalf("standby: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("standby never promoted after the root died")
	}
	if prom.Deposed == nil || prom.Deposed.Gen != 1 {
		t.Fatalf("promotion deposed %+v, want generation 1", prom.Deposed)
	}
	if prom.State == nil || prom.State.LastIter < sc.DisruptAfterIter {
		t.Fatalf("standby hot copy at iteration %d, want ≥ %d", prom.State.LastIter, sc.DisruptAfterIter)
	}

	state, err := checkpoint.Recover(dir)
	if err != nil || state.Snap == nil {
		t.Fatalf("recover after crash: %v (snap %v)", err, state)
	}
	expectStart := state.Snap.Iter

	b, err := Open(fx, sc.config(fx, lay, dir, true, "ha-root-b"))
	if err != nil {
		t.Fatalf("promoted root: %v", err)
	}
	defer b.Close()
	if b.Root.RootGen() != 2 {
		t.Fatalf("promoted root holds generation %d, want 2", b.Root.RootGen())
	}
	pool.retarget(b.Addrs(sc.Workers))
	out, err := b.Run(20 * time.Second)
	b.Close()
	pool.stopAll()
	if err != nil {
		t.Fatalf("promoted run: %v", err)
	}
	if out.Iters != sc.Iters-expectStart {
		t.Errorf("promoted run executed %d iterations, want %d (takeover at iter %d of %d)",
			out.Iters, sc.Iters-expectStart, expectStart, sc.Iters)
	}
	checkFiniteParams(t, out.Params)
}

func runZombieFenced(t *testing.T, lay Layout) {
	sc := haBase("zombie-root-fenced-after-takeover")
	sc.LeaseTTL = 300 * time.Millisecond
	sc.IterTimeout = 2 * time.Second // bounds the zombie's fenced-detection latency
	// The zombie must still be training when the successor claims the next
	// generation: give it enough iterations (a few ms each) to outlast the
	// lease expiry wait by a wide margin.
	sc.Iters = 240
	fx := NewFixture(t, sc.K, 12, 300)
	dir := filepath.Join(t.TempDir(), "ckpt")

	a, err := Open(fx, sc.config(fx, lay, dir, false, "ha-root-a"))
	if err != nil {
		t.Fatalf("first root: %v", err)
	}
	defer a.Close()
	pool := startRecoveryWorkers(sc.Workers, fx, a.Addrs(sc.Workers))
	defer pool.stopAll()

	runDone := make(chan error, 1)
	go func() {
		_, err := a.Run(20 * time.Second)
		runDone <- err
	}()
	if !WaitDurableIter(dir, sc.DisruptAfterIter, 60*time.Second) {
		a.Close()
		<-runDone
		t.Fatalf("iteration %d never became durable", sc.DisruptAfterIter)
	}

	// Wedge the root: it keeps training but its claim silently lapses.
	a.Root.SuspendLeaseRenewal()
	expiry := time.Now().Add(60 * time.Second)
	for {
		tok, err := ha.ReadToken(dir)
		if err == nil && tok.Expired(time.Now()) {
			break
		}
		if time.Now().After(expiry) {
			t.Fatal("suspended lease never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}

	b, err := Open(fx, sc.config(fx, lay, dir, true, "ha-root-b"))
	if err != nil {
		t.Fatalf("successor: %v", err)
	}
	defer b.Close()
	if b.Root.RootGen() != 2 {
		t.Fatalf("successor holds generation %d, want 2", b.Root.RootGen())
	}
	pool.retarget(b.Addrs(sc.Workers))

	// The deposed root must fail typed — and name the usurping generation,
	// the remediation an operator acts on — before the successor can finish.
	var zerr error
	select {
	case zerr = <-runDone:
	case <-time.After(60 * time.Second):
		t.Fatal("deposed root never failed")
	}
	if zerr == nil {
		t.Fatal("deposed root finished its run successfully")
	}
	if !errors.Is(zerr, ha.ErrFenced) {
		t.Fatalf("deposed root failed with %v, want ha.ErrFenced", zerr)
	}
	if !strings.Contains(zerr.Error(), "deposed by generation 2") {
		t.Errorf("fenced error %q does not name the usurping generation", zerr)
	}
	a.Close() // frees any worker still attached to the zombie

	out, err := b.Run(20 * time.Second)
	b.Close()
	pool.stopAll()
	if err != nil {
		t.Fatalf("successor run: %v", err)
	}
	checkFiniteParams(t, out.Params)
}
