// GroupRunner: a coding-group master as an independently restartable unit.
//
// A GroupRunner hosts one coding group (roster engine, group-local control
// plane, epoch-fenced collect) behind an adoption loop: it dials whatever
// root the lease token in RootDir names (or a fixed RootAddr), announces its
// live epoch and membership with MsgAdopt, serves params broadcasts from the
// adopted root, and whenever the uplink dies — root crash, root takeover,
// network fault — it simply re-dials and re-adopts. The group's workers
// never notice: the runner's own listener address is stable, so they stay
// connected (or rejoin by ResumeID) across any number of root incarnations.
//
// It is the only group host. NewRoot starts one per group it does not list
// in ExternalGroups, pinned to the root's own listener and recording into
// the root's journal; StartGroup runs one out of process for an external
// group. With a JournalDir the runner owns a per-group journal: membership
// and migrations stream through a checkpoint.GroupRecorder, and the group's
// control-plane state (epoch, members, throughput estimates) is snapshotted
// on the SnapshotEvery cadence. A restarted runner (ResumeJournal) rebuilds
// its controller from that history, reserves its member IDs for rejoins,
// and raises its epoch base above everything recorded — the same fencing
// discipline as a resumed root.
//
// Zombie fencing is generation-based on both sides: the runner refuses an
// adoption ack whose RootGen is below the generation it already adopted
// (a deposed root answering late), stamps every upload with the adopted
// generation, and — when RootDir is set — watches the lease token so a
// takeover proactively defects the uplink to the new root instead of
// waiting for the old one to die.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/rootcore"
	"github.com/hetgc/hetgc/internal/roster"
	"github.com/hetgc/hetgc/internal/transport"
)

// ErrRunnerStopped reports a runner torn down by Stop rather than failure.
var ErrRunnerStopped = errors.New("shard: group runner stopped")

// GroupRunnerConfig configures the group master StartGroup runs for one of
// the root's ExternalGroups. The embedded Config must match the root's
// exactly where the plan is concerned (K, S, GroupSize, FanIn, Scheme,
// Throughputs, Seed) — both sides derive the same layout independently. Model, Optimizer, InitialParams,
// Iterations, SampleCount, LossEvery, LossFn, CheckpointDir, Resume,
// LeaseTTL and ExternalGroups are ignored: the runner neither trains nor
// holds the root lease.
type GroupRunnerConfig struct {
	Config
	// Group is the coding group this runner serves (must be listed in the
	// root's ExternalGroups).
	Group int
	// WorkerAddr is the runner's worker listen address. Use a fixed port in
	// deployments so workers survive runner restarts ("127.0.0.1:0" is fine
	// for single-run tests).
	WorkerAddr string
	// RootAddr, when non-empty, pins the root's dial address. Leave empty
	// and set RootDir to discover the root (and every successor) from the
	// lease token instead.
	RootAddr string
	// RootDir, when non-empty, is the root's checkpoint/lease directory:
	// the runner reads the lease token for discovery and watches it for
	// takeovers, defecting to each new generation's address.
	RootDir string
	// JournalDir, when non-empty, makes the group's control-plane state
	// durable in its own per-group journal.
	JournalDir string
	// ResumeJournal rebuilds the runner from the journal in JournalDir: the
	// controller restored from the snapshot's throughput history, member
	// IDs reserved for ResumeID rejoins, epoch base raised above the
	// recorded history.
	ResumeJournal bool
}

func (c *GroupRunnerConfig) validate() error {
	if c.K <= 0 || c.S < 0 {
		return fmt.Errorf("%w: k=%d s=%d", ErrBadConfig, c.K, c.S)
	}
	if len(c.Throughputs) == 0 {
		return fmt.Errorf("%w: no workers", ErrBadConfig)
	}
	if err := c.checkScheme(); err != nil {
		return err
	}
	if c.IterTimeout <= 0 {
		return fmt.Errorf("%w: iteration timeout required", ErrBadConfig)
	}
	if c.RootAddr == "" && c.RootDir == "" {
		return fmt.Errorf("%w: runner needs RootAddr or RootDir", ErrBadConfig)
	}
	if c.ResumeJournal && c.JournalDir == "" {
		return fmt.Errorf("%w: resume requires a journal directory", ErrBadConfig)
	}
	_, err := rootcore.ParseCodec(c.Wire, ErrBadConfig)
	return err
}

// GroupRunner is a running group master.
type GroupRunner struct {
	cfg     GroupRunnerConfig
	workers int               // the group's planned worker count
	loop    roster.Loop       // the group's engine and iteration policy
	store   *checkpoint.Store // the runner's own journal (nil when the root records the group)
	codec   grad.Codec        // uplink codec, named in the last adoption ack

	mu         sync.Mutex
	up         *transport.Conn // live uplink (nil between adoptions)
	adoptedGen int
	stopped    bool
	lastFail   error // the last iteration failure since one was served

	served       int     // iterations served (drives the snapshot cadence)
	iterFailures int     // consecutive failed iterations across adoptions
	epochs       []int   // the plan epoch each served iteration decoded under
	lastUpSec    float64 // the previous upload's send duration

	stop chan struct{}
	done chan struct{}
	err  error // sticky; read via Err after done
}

// StartGroup builds the group's control plane (restoring it from the
// journal when resuming), starts the worker listener on WorkerAddr, and
// launches the adoption/serve loop. Workers dial Addr() with the elastic
// worker protocol; the runner keeps serving across root restarts until
// Stop, a MsgShutdown from the root, or an unrecoverable failure.
func StartGroup(cfg GroupRunnerConfig) (_ *GroupRunner, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ChunkLen <= 0 {
		cfg.ChunkLen = DefaultChunkLen
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = rootcore.DefaultSnapshotEvery
	}
	plan, err := BuildPlanLayout(cfg.Throughputs, PlanConfig{
		K: cfg.K, S: cfg.S, GroupSize: cfg.GroupSize, FanIn: cfg.FanIn,
	})
	if err != nil {
		return nil, err
	}
	if g := cfg.Group; g < 0 || g >= plan.NumGroups() {
		return nil, fmt.Errorf("%w: group %d out of range (plan has %d groups)", ErrBadConfig, g, plan.NumGroups())
	}

	// Journal recovery: the runner's own history, not the root's.
	var state *checkpoint.State
	var store *checkpoint.Store
	defer func() {
		if err != nil && store != nil {
			_ = store.Close()
		}
	}()
	if cfg.JournalDir == "" {
		return startRunner(cfg, plan.Groups[cfg.Group], nil, nil, nil)
	}
	if cfg.ResumeJournal {
		if state, err = checkpoint.Recover(cfg.JournalDir); err != nil {
			return nil, err
		}
		store, err = checkpoint.Reopen(cfg.JournalDir)
	} else {
		store, err = checkpoint.Create(cfg.JournalDir)
	}
	if err != nil {
		return nil, err
	}
	store.SetMetrics(cfg.Obs)
	return startRunner(cfg, plan.Groups[cfg.Group], state, store.GroupRecorder(cfg.Group), store)
}

// startRunner builds the runner for group grp from a validated, defaulted
// config: its controller restored from state (nil for a fresh group), its
// roster records sent to rec, and — with a non-nil store, the runner's own
// journal — a resumed state anchored there before the loop starts. On error
// the caller still owns store.
func startRunner(cfg GroupRunnerConfig, grp *Group, state *checkpoint.State, rec roster.Recorder, store *checkpoint.Store) (*GroupRunner, error) {
	g := cfg.Group
	ctrl, recovered, err := buildGroupController(&cfg.Config, grp, g, state)
	if err != nil {
		return nil, err
	}
	lis, err := transport.Listen(cfg.WorkerAddr)
	if err != nil {
		return nil, err
	}
	eng, err := newGroupEngine(&cfg.Config, grp, g, ctrl, recovered, rec, lis)
	if err != nil {
		return nil, err
	}
	cfg.Obs.BindWire(transport.Wire)
	r := &GroupRunner{
		cfg:     cfg,
		workers: len(grp.Workers),
		loop: roster.Loop{
			Eng: eng, IterTimeout: cfg.IterTimeout, MaxRetries: cfg.MaxRetries,
			Fail: fmt.Errorf("%w: group %d", ErrGroupFailed, g),
		},
		store: store,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if store != nil && cfg.ResumeJournal {
		// Anchor a fresh journal generation with the restored state before
		// any append.
		if err := store.WriteSnapshot(r.snapshot()); err != nil {
			eng.Shutdown(false)
			return nil, err
		}
	}
	go r.run()
	return r, nil
}

// Addr returns the runner's worker listen address.
func (r *GroupRunner) Addr() string { return r.loop.Eng.Addr() }

// Group returns the coding group this runner serves.
func (r *GroupRunner) Group() int { return r.cfg.Group }

// Gen returns the root generation the runner most recently adopted.
func (r *GroupRunner) Gen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.adoptedGen
}

// WaitForWorkers blocks until at least min members joined the group.
func (r *GroupRunner) WaitForWorkers(min int, timeout time.Duration) error {
	return r.loop.Eng.WaitForMembers(min, timeout)
}

// Done is closed when the runner's serve loop exits.
func (r *GroupRunner) Done() <-chan struct{} { return r.done }

// Err reports why the runner exited (nil after a root-driven shutdown,
// ErrRunnerStopped after Stop). Valid once Done is closed.
func (r *GroupRunner) Err() error {
	<-r.done
	if r.err != nil && errors.Is(r.err, ErrRunnerStopped) {
		return ErrRunnerStopped
	}
	return r.err
}

// failure reports why the group is not serving: the runner's exit error once
// Done is closed, else its last iteration failure since it last served one.
func (r *GroupRunner) failure() error {
	select {
	case <-r.done:
		return r.Err()
	default:
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastFail
}

// Stats snapshots the group's counters. Valid once Done is closed.
func (r *GroupRunner) Stats() GroupStats {
	<-r.done
	eng := r.loop.Eng
	return GroupStats{
		Group:   r.cfg.Group,
		Workers: r.workers,
		Epochs:  r.epochs,
		Replans: eng.Events(),
		Stats:   r.loop.Stats,
		Joins:   eng.Joins(),
		Deaths:  eng.Deaths(),
	}
}

// Stop tears the runner down cold: no shutdown frames to workers (they see
// a dead connection and reconnect elsewhere — or to this runner's restart).
func (r *GroupRunner) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.stopped = true
	up := r.up
	r.mu.Unlock()
	close(r.stop)
	if up != nil {
		_ = up.Close()
	}
	r.loop.Eng.Shutdown(false)
	<-r.done
}

// snapshot assembles the runner's durable state: the group's epoch,
// members and live controller state (nil params — a group journal holds no
// model).
func (r *GroupRunner) snapshot() *checkpoint.Snapshot {
	return &checkpoint.Snapshot{
		Iter:   r.served,
		Epoch:  -1,
		Groups: []checkpoint.GroupState{r.coreState()},
	}
}

// stopping reports whether Stop was called.
func (r *GroupRunner) stopping() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// rootAddr resolves the root's current dial address (and its generation,
// when discovered through the lease token).
func (r *GroupRunner) rootAddr() (addr string, gen int, err error) {
	if r.cfg.RootDir != "" {
		tok, err := ha.ReadToken(r.cfg.RootDir)
		if err != nil {
			return "", 0, err
		}
		return tok.Addr, tok.Gen, nil
	}
	return r.cfg.RootAddr, 0, nil
}

// run is the adoption/serve loop: dial the current root, adopt, serve its
// broadcasts until the uplink dies, repeat. Failures to reach or adopt a
// root share one budget of consecutive attempts; an ack for another group
// ends the runner at once (no root will ever answer it differently).
// Iteration failures are non-fatal (the root resends params after
// re-adoption) but bounded too: consecutive failures without a single
// served iteration in between give up.
func (r *GroupRunner) run() {
	defer func() {
		r.loop.Eng.Shutdown(false)
		if r.store != nil {
			_ = r.store.Close()
		}
		close(r.done)
	}()
	failures := 0
	for {
		if r.stopping() {
			r.err = ErrRunnerStopped
			return
		}
		conn, gen, err := r.dialAndAdopt()
		if errors.Is(err, ErrBadConfig) {
			r.err = err
			return
		}
		if err != nil {
			failures++
			if failures > 200 {
				r.err = fmt.Errorf("%w: group %d cannot reach a root: %v", ErrGroupFailed, r.cfg.Group, err)
				return
			}
			select {
			case <-r.stop:
			case <-time.After(50 * time.Millisecond):
			}
			continue
		}
		failures = 0
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			_ = conn.Close()
			r.err = ErrRunnerStopped
			return
		}
		r.up = conn
		r.adoptedGen = gen
		r.mu.Unlock()
		watchStop := make(chan struct{})
		if r.cfg.RootDir != "" {
			go r.watchToken(conn, gen, watchStop)
		}
		fatal := r.serve(conn, gen)
		close(watchStop)
		r.mu.Lock()
		if r.up == conn {
			r.up = nil
		}
		r.mu.Unlock()
		_ = conn.Close()
		if fatal {
			return
		}
	}
}

// dialAndAdopt dials the current root and adopts it, returning the uplink
// and the adopted generation. A stale lease token, or a zombie — a deposed
// root acking with a generation below the one already adopted — is an
// error like a failed dial.
func (r *GroupRunner) dialAndAdopt() (*transport.Conn, int, error) {
	addr, tokGen, err := r.rootAddr()
	if err != nil {
		return nil, 0, err
	}
	if tokGen > 0 && tokGen < r.Gen() {
		// The token still names a root older than the one we adopted — a
		// stale read during takeover; wait for the new claim.
		return nil, 0, fmt.Errorf("stale lease token (gen %d < adopted %d)", tokGen, r.Gen())
	}
	conn, err := transport.Dial(addr, 2*time.Second)
	if err != nil {
		return nil, 0, err
	}
	gen, err := r.adopt(conn, 5*time.Second)
	if err == nil && gen < r.Gen() {
		err = fmt.Errorf("root acked generation %d below adopted %d", gen, r.Gen())
	}
	if err != nil {
		_ = conn.Close()
		return nil, 0, err
	}
	return conn, gen, nil
}

// watchToken polls the lease token while conn is the live uplink and closes
// it the moment a higher generation claims the root — the proactive defect
// that keeps a zombie root from holding this group hostage until TCP
// notices.
func (r *GroupRunner) watchToken(conn *transport.Conn, gen int, stop <-chan struct{}) {
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-r.stop:
			return
		case <-t.C:
			tok, err := ha.ReadToken(r.cfg.RootDir)
			if err == nil && tok.Gen > gen {
				_ = conn.Close()
				return
			}
		}
	}
}

// serve runs the adopted session: one group iteration per MsgParams (fenced
// by the adopted generation), uploads stamped with it, group snapshots on
// the journal cadence. The upload is inline: the root reduces and steps on
// every group's sum before it broadcasts the next iteration, so there is no
// later collect for it to overlap. Returns true when the loop must not
// re-adopt (shutdown, stop, unrecoverable failure); false re-enters the
// adoption loop.
func (r *GroupRunner) serve(conn *transport.Conn, gen int) (fatal bool) {
	r.loop.Plan = nil // a session starts by migrating above the adopted epoch floor
	for {
		env, err := conn.Recv()
		if err != nil {
			if r.stopping() {
				r.err = ErrRunnerStopped
				return true
			}
			return false
		}
		switch env.Type {
		case transport.MsgShutdown:
			r.loop.Eng.Shutdown(true)
			return true
		case transport.MsgParams:
			if env.RootGen != gen {
				continue // a broadcast from a generation we did not adopt
			}
			// A freshly restarted runner may see params before its workers
			// have rejoined; give a plannable quorum (s+1 — the controller's
			// floor) one timeout to show up. Serving with a partial roster
			// beyond that is fine — the controller plans around it.
			if need := r.cfg.S + 1; r.loop.Eng.AliveCount() < need {
				_ = r.loop.Eng.WaitForMembers(need, r.cfg.IterTimeout)
			}
			sum := grad.GetBuffer(len(env.Vector))
			err := r.loop.Iteration(nil, env.Iter, env.Vector, sum)
			grad.PutBuffer(env.Vector) // broadcast and joined: back to the receive pool
			if err != nil {
				// An iteration failure is not fatal to training: drop the
				// uplink, re-adopt, let the root resend. Bounded so a group
				// that can never decode gives up.
				grad.PutBuffer(sum)
				r.mu.Lock()
				r.lastFail = err
				r.mu.Unlock()
				r.iterFailures++
				if r.iterFailures > r.cfg.MaxRetries+2 {
					r.err = err
					return true
				}
				return false
			}
			r.iterFailures = 0
			r.mu.Lock()
			r.lastFail = nil
			r.mu.Unlock()
			r.epochs = append(r.epochs, r.loop.Plan.Epoch)
			// Echo the root's trace context and the group-level phase spans
			// on the uplink; ChunkGradient hoists both onto the final chunk.
			tmpl := transport.Envelope{Iter: env.Iter, Epoch: r.loop.Plan.Epoch, WorkerID: r.cfg.Group, RootGen: gen, Trace: env.Trace, Spans: r.uplinkSpans()}
			if err := r.upload(conn, tmpl, sum); err != nil {
				if errors.Is(err, errUplinkEncode) {
					r.err = err
					return true
				}
				return false // the uplink died mid-upload; re-adopt
			}
			r.served++
			if r.store != nil && r.served%r.cfg.SnapshotEvery == 0 {
				_ = r.store.WriteSnapshot(r.snapshot())
			}
		}
	}
}
