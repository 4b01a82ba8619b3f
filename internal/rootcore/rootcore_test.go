package rootcore

import (
	"errors"
	"io/fs"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
)

// These tests run the core with no sockets: open is the bring-up behind the
// listener, and collect is a stub.

func testConfig(iters int) Config {
	model := &ml.Softmax{InputDim: 2, NumClasses: 2}
	return Config{
		K: 4, S: 1, Model: model, Optimizer: &ml.SGD{LR: 0.1},
		InitialParams: model.InitParams(nil), Iterations: iters,
		IterTimeout: time.Second,
	}
}

// snapIters records the Iter of every snapshot the core assembles.
type snapIters []int

func (s *snapIters) hooks() Hooks {
	return Hooks{
		Restore: func(*checkpoint.State) error { return nil },
		Groups:  func(snap *checkpoint.Snapshot) { *s = append(*s, snap.Iter) },
	}
}

// zeroCollect is a collect that decodes a zero gradient under epoch 0.
func zeroCollect(dim int) func(int, []float64, *obs.IterScope) (grad.Gradient, int, error) {
	g := make(grad.Gradient, dim)
	return func(int, []float64, *obs.IterScope) (grad.Gradient, int, error) { return g, 0, nil }
}

func mustOpen(t *testing.T, cfg Config, hooks Hooks) *Core {
	t.Helper()
	c, err := open(cfg, "test:0", hooks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestValidateWrapsTheRuntimesSentinel(t *testing.T) {
	bad := map[string]func(*Config){
		"no model":           func(c *Config) { c.Model = nil },
		"param dim":          func(c *Config) { c.InitialParams = []float64{1} },
		"k":                  func(c *Config) { c.K = 0 },
		"s":                  func(c *Config) { c.S = -1 },
		"iterations":         func(c *Config) { c.Iterations = 0 },
		"iter timeout":       func(c *Config) { c.IterTimeout = 0 },
		"resume without dir": func(c *Config) { c.Resume = true },
		"lease without dir":  func(c *Config) { c.LeaseTTL = time.Second },
		"unknown codec":      func(c *Config) { c.Wire = clustercfg.WireConfig{Codec: "zstd"} },
	}
	for name, mutate := range bad {
		cfg := testConfig(1)
		mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
	cfg := testConfig(1)
	cfg.Wire.Codec = "int8"
	if err := cfg.Validate(); err != nil {
		t.Fatalf("good config: %v", err)
	}
}

func TestOpenTypedFailures(t *testing.T) {
	var snaps snapIters
	populated := t.TempDir()
	st, err := checkpoint.Create(populated)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendIter(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(4)
	cfg.CheckpointDir = populated
	if _, err := open(cfg, "test:0", snaps.hooks()); !errors.Is(err, checkpoint.ErrExists) {
		t.Errorf("fresh open of a populated dir: %v, want ErrExists", err)
	}
	cfg = testConfig(4)
	cfg.CheckpointDir, cfg.Resume = t.TempDir(), true
	if _, err := open(cfg, "test:0", snaps.hooks()); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Errorf("resume of an empty dir: %v, want ErrNoCheckpoint", err)
	}
}

// TestResumeFencesBeforeItReads pins the bring-up order: the lease is
// acquired — deposing the previous root — before the checkpoint is read, so
// a zombie cannot commit between the promoted root's read and its acquire.
// A resume over a directory holding a lease token but no snapshot fails
// ErrNoCheckpoint and still leaves the token one generation higher.
func TestResumeFencesBeforeItReads(t *testing.T) {
	dir := t.TempDir()
	old, err := ha.Acquire(dir, DefaultHolder, "old:0", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(4)
	cfg.CheckpointDir, cfg.Resume, cfg.LeaseTTL = dir, true, time.Minute
	var snaps snapIters
	if _, err := open(cfg, "new:0", snaps.hooks()); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("resume with no snapshot: %v, want ErrNoCheckpoint", err)
	}
	tok, err := ha.ReadToken(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Gen != old.Gen()+1 || tok.Addr != "new:0" {
		t.Fatalf("token after the failed resume: gen %d addr %q, want gen %d addr new:0 (acquire must precede recover)", tok.Gen, tok.Addr, old.Gen()+1)
	}
}

func TestSnapshotCadenceAndResumeAnchor(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(7)
	cfg.CheckpointDir, cfg.SnapshotEvery = dir, 3
	var snaps snapIters
	c := mustOpen(t, cfg, snaps.hooks())
	prog, err := c.Train(zeroCollect(len(cfg.InitialParams)))
	if err != nil {
		t.Fatal(err)
	}
	// Every SnapshotEvery-th iteration, and the last.
	if want := (snapIters{3, 6, 7}); !reflect.DeepEqual(snaps, want) {
		t.Fatalf("snapshots at iterations %v, want %v", snaps, want)
	}
	if len(prog.IterTimes) != 7 || prog.StartIter != 0 || len(prog.Params) != len(cfg.InitialParams) {
		t.Fatalf("progress %+v", prog)
	}
	c.Close()

	// A resumed open starts where the last snapshot ended, and its anchor
	// snapshot is written with the metrics already bound: the snapshot
	// histogram counts it.
	cfg.Iterations, cfg.Resume = 9, true
	tel := obs.New()
	cfg.Obs = tel
	snaps = nil
	c = mustOpen(t, cfg, snaps.hooks())
	if c.StartIter() != 7 || !reflect.DeepEqual(snaps, snapIters{7}) {
		t.Fatalf("resumed at %d with anchors %v, want 7 and [7]", c.StartIter(), snaps)
	}
	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), obs.MSnapshotSeconds+"_count 1") {
		t.Fatalf("the resume anchor is missing from %s:\n%s", obs.MSnapshotSeconds, sb.String())
	}
}

// TestSnapshotHoldsTheStateBeforeTheNextStep: a snapshot is assembled from
// the live parameters and optimizer state, and the next optimizer Step
// rewrites both in place. Recovering a snapshot written before that Step
// must still yield the values from before it.
func TestSnapshotHoldsTheStateBeforeTheNextStep(t *testing.T) {
	for _, opt := range []ml.StatefulOptimizer{&ml.SGD{LR: 0.1, Momentum: 0.9}, &ml.Adam{LR: 0.1}} {
		cfg := testConfig(4)
		cfg.Optimizer, cfg.CheckpointDir = opt, t.TempDir()
		var snaps snapIters
		c := mustOpen(t, cfg, snaps.hooks())
		g := make(grad.Gradient, len(c.params))
		for i := range g {
			g[i] = float64(i + 1)
		}
		if err := opt.Step(c.params, g); err != nil {
			t.Fatal(err)
		}
		wantParams := append([]float64(nil), c.params...)
		vecs, wantStep := opt.OptimizerState()
		var wantVecs [][]float64
		for _, v := range vecs {
			wantVecs = append(wantVecs, append([]float64(nil), v...))
		}
		if err := c.store.WriteSnapshot(c.snapshot(1)); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(c.params, g); err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(c.params, wantParams) {
			t.Fatalf("%T: the second Step left the params unchanged", opt)
		}
		st, err := checkpoint.Recover(cfg.CheckpointDir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.Snap.Params, wantParams) || !reflect.DeepEqual(st.Snap.OptVecs, wantVecs) || st.Snap.OptStep != wantStep {
			t.Fatalf("%T: recovered params %v, state %v (step %d); want the pre-Step %v, %v (step %d)",
				opt, st.Snap.Params, st.Snap.OptVecs, st.Snap.OptStep, wantParams, wantVecs, wantStep)
		}
	}
}

func TestLatchedJournalErrorFailsPersistTyped(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2)
	cfg.CheckpointDir = dir
	var snaps snapIters
	c := mustOpen(t, cfg, snaps.hooks())
	// A roster recorder's write fails and is swallowed (the engine has no
	// error path): the store latches it, and the next persist reports it.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	c.Recorder(0).RecordJoin(1, false)
	_, err := c.Train(zeroCollect(len(cfg.InitialParams)))
	if err == nil || !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "journal writes failing") {
		t.Fatalf("persist over a latched journal error: %v, want the latched fs.ErrNotExist", err)
	}
}

func TestLeaseLifecycle(t *testing.T) {
	const ttl = 90 * time.Millisecond
	leased := func(t *testing.T) (Config, *Core) {
		cfg := testConfig(2)
		cfg.CheckpointDir, cfg.LeaseTTL = t.TempDir(), ttl
		var snaps snapIters
		return cfg, mustOpen(t, cfg, snaps.hooks())
	}
	token := func(t *testing.T, cfg Config) *ha.Token {
		t.Helper()
		tok, err := ha.ReadToken(cfg.CheckpointDir)
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}

	t.Run("success releases, Close does not", func(t *testing.T) {
		cfg, c := leased(t)
		if c.Gen() != 1 {
			t.Fatalf("fresh lease generation %d, want 1", c.Gen())
		}
		if _, err := c.Train(zeroCollect(len(cfg.InitialParams))); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if token(t, cfg).Expired(time.Now()) {
			t.Fatal("Close released the lease: a crash must leave it to lapse")
		}
		c.Release()
		if tok := token(t, cfg); !tok.Expired(time.Now()) || tok.Gen != 1 {
			t.Fatalf("Release left token %+v, want generation 1 expired in place", tok)
		}
	})

	t.Run("renewal runs until suspended", func(t *testing.T) {
		cfg, c := leased(t)
		first := token(t, cfg).Expiry
		deadline := time.Now().Add(5 * time.Second)
		for !token(t, cfg).Expiry.After(first) {
			if time.Now().After(deadline) {
				t.Fatal("the lease was never renewed")
			}
			time.Sleep(ttl / 6)
		}
		c.SuspendLeaseRenewal()
		time.Sleep(ttl / 2) // past the next tick: the loop has seen the flag and exited
		frozen := token(t, cfg).Expiry
		time.Sleep(ttl)
		if got := token(t, cfg).Expiry; !got.Equal(frozen) {
			t.Fatalf("expiry moved from %v to %v after suspension", frozen, got)
		}
	})

	t.Run("a superseded lease turns any run error into ErrFenced", func(t *testing.T) {
		cfg, c := leased(t)
		boom := errors.New("boom")
		fail := func(int, []float64, *obs.IterScope) (grad.Gradient, int, error) { return nil, 0, boom }
		if _, err := c.Train(fail); !errors.Is(err, boom) || errors.Is(err, ha.ErrFenced) {
			t.Fatalf("run error under a held lease: %v, want it passed through", err)
		}
		if c.Fenced(nil) != nil {
			t.Fatal("Fenced(nil) must stay nil")
		}
		c.SuspendLeaseRenewal()
		for !token(t, cfg).Expired(time.Now()) {
			time.Sleep(ttl / 6)
		}
		if _, err := ha.Acquire(cfg.CheckpointDir, "usurper", "usurper:0", time.Minute); err != nil {
			t.Fatal(err)
		}
		_, err := c.Train(fail)
		if !errors.Is(err, ha.ErrFenced) || !strings.Contains(err.Error(), "usurper") || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("run error under a superseded lease: %v, want ErrFenced naming the usurper and the cause", err)
		}
	})
}
