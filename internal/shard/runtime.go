// Live hierarchical runtime: a Root master, per-group GroupMasters and the
// elastic worker protocol stitched into a two-level deployment. Each group
// master owns one coding group — it admits that group's workers over TCP,
// runs the epoch-fenced BSP collect/decode loop with its own group-local
// elastic control plane (drift or churn in a group migrates only that
// group), and streams the group's decoded gradient sum to the root as one
// coalesced batch of length-prefixed chunks per iteration. The root
// broadcasts parameters down, reassembles the chunked uploads, reduces them
// along the configured fan-in tree and steps the optimizer.
//
// Groups attach to the root through an adoption handshake rather than a
// fixed spawn order: every group connection (in-process group master or
// out-of-process GroupRunner, and every reconnect after either side
// restarts) opens with MsgAdopt carrying the group's live epoch and member
// IDs. The root reconciles that against what its own journal recorded —
// epoch floors only ever rise, member sets only ever grow — and answers
// with the reconciled floor plus its lease generation, so a group that
// outlived a root crash is re-adopted with its real history instead of
// being respawned from scratch.
//
// With a positive LeaseTTL the root runs under the HA lease in
// CheckpointDir: its generation fences every params broadcast and group-sum
// upload, and the journal guard refuses writes the moment the lease is lost
// (see internal/ha).
//
// Workers speak the unmodified elastic worker protocol (hello/ack,
// MsgReassign, epoch-tagged params and gradients, telemetry), so
// runtime.DialElasticWorker against a group master's address is all a worker
// needs.
package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/rootcore"
	"github.com/hetgc/hetgc/internal/roster"
	"github.com/hetgc/hetgc/internal/transport"
)

// Errors returned by the sharded runtime.
var (
	// ErrBadConfig marks invalid sharded-runtime configurations.
	ErrBadConfig = errors.New("shard: invalid config")
	// ErrGroupFailed is returned when a coding group cannot make progress
	// (lost its planning quorum or timed out beyond its retry budget).
	ErrGroupFailed = errors.New("shard: group failed")
)

// DefaultChunkLen is the default number of float64 elements per upstream
// gradient chunk (512 KiB frames).
const DefaultChunkLen = 1 << 16

// Config configures a sharded training run.
type Config struct {
	// K is the global data-partition count, S the per-group straggler
	// budget. GroupSize and FanIn shape the group layout (see PlanConfig);
	// Scheme is the strategy family every group's controller builds:
	// heter-aware (the default) or group-based. A fixed-shape scheme needs one
	// member per partition, which a capacity-split group does not have, so it
	// is refused.
	K, S      int
	GroupSize int
	FanIn     int
	Scheme    core.Kind
	// Throughputs are the initial per-worker speed estimates; their length
	// fixes the total worker count and the grouping.
	Throughputs []float64
	// Model, Optimizer, InitialParams, Iterations, SampleCount, IterTimeout,
	// LossEvery and LossFn mirror runtime.ElasticConfig.
	Model         ml.Model
	Optimizer     ml.Optimizer
	InitialParams []float64
	Iterations    int
	SampleCount   int
	IterTimeout   time.Duration
	LossEvery     int
	LossFn        func(params []float64) (float64, error)
	// ChunkLen is the number of gradient elements per upstream sub-frame
	// (default DefaultChunkLen); a group's whole upload is one batched write
	// regardless of the chunk count.
	ChunkLen int
	// Alpha, DriftThreshold, MinObservations, CooldownIters and InitialRate
	// parameterise every group's control plane (see elastic.Config).
	Alpha           float64
	DriftThreshold  float64
	MinObservations int
	CooldownIters   int
	InitialRate     float64
	// MaxRetries bounds per-group forced replan+retry attempts for a single
	// iteration (default 2).
	MaxRetries int
	// Seed drives plan and strategy construction (fixed seed, reproducible
	// plans).
	Seed int64
	// PartitionSource, when non-nil, turns every group master into a data
	// plane: workers with no local PartitionData fetch their shards over the
	// wire (MsgPartitionReq/MsgPartition) from their group master, which
	// answers partition p with PartitionSource(p). Partition indices are
	// global, so one source serves all groups.
	PartitionSource func(p int) (*ml.Dataset, error)
	// ExternalGroups lists coding groups served by out-of-process
	// GroupRunners: the root does not spawn masters for them and instead
	// waits for their adoption handshakes. Their restarts (and the root's
	// own) are survivable — see GroupRunner.
	ExternalGroups []int
	// AdoptTimeout bounds how long WaitForWorkers waits for every external
	// group's adoption handshake (default 30s).
	AdoptTimeout time.Duration

	// The composable cluster blocks (see internal/clustercfg). Durability: a
	// non-empty CheckpointDir makes training state durable — the root
	// journals every iteration, each group master journals its membership and
	// migrations, and the model is snapshotted every SnapshotEvery iterations
	// (default 10); a fresh run refuses a directory already holding state
	// (checkpoint.ErrExists); Resume instead constructs the hierarchy from
	// the recovered state, with each group's member IDs reserved for
	// ResumeID rejoins and its epoch base raised above everything its journal
	// recorded. HA: a positive LeaseTTL puts the root under the lease in
	// CheckpointDir — construction acquires (or, after a takeover, inherits)
	// the lease, every broadcast and journal write is fenced by its
	// generation, and losing it turns run failures into ha.ErrFenced (Holder
	// defaults to "shard-root"). Telemetry: a non-nil Obs receives iteration
	// phase spans at the root, per-group roster and control-plane metrics,
	// checkpoint and lease metrics, and the structured event journal.
	clustercfg.DurabilityConfig
	clustercfg.HAConfig
	clustercfg.TelemetryConfig
	// Wire selects the gradient codec the root offers each group master at
	// its adoption: groups that advertise it quantize their uplink sums,
	// everyone else stays on raw float64 (mixed-version interop). Group
	// masters pass the same preference down to their workers' hellos.
	Wire clustercfg.WireConfig
}

// core maps the config onto the root core's shared view of it.
func (c *Config) core() rootcore.Config {
	return rootcore.Config{
		K: c.K, S: c.S, Model: c.Model, Optimizer: c.Optimizer, InitialParams: c.InitialParams,
		Iterations: c.Iterations, SampleCount: c.SampleCount, IterTimeout: c.IterTimeout,
		LossEvery: c.LossEvery, LossFn: c.LossFn,
		DurabilityConfig: c.DurabilityConfig, HAConfig: c.HAConfig, TelemetryConfig: c.TelemetryConfig, Wire: c.Wire,
		Name: "sharded", DefaultHolder: "shard-root", BadConfig: ErrBadConfig,
	}
}

// checkScheme refuses the fixed-shape schemes (see Config.Scheme).
func (c *Config) checkScheme() error {
	if c.Scheme.FixedShape() {
		return fmt.Errorf("%w: %v cannot run in capacity-split groups", ErrBadConfig, c.Scheme)
	}
	return nil
}

// GroupStats summarises one group's run.
type GroupStats struct {
	// Group is the coding-group index; Workers its planned worker count.
	Group, Workers int
	// Epochs is the group-local plan epoch each iteration decoded under.
	Epochs []int
	// Replans is the group's migration history (initial plan included).
	Replans []elastic.ReplanEvent
	// Stats are the group's fencing counters, as in the flat runtime's
	// result.
	roster.Stats
	// Joins and Deaths count the group's membership events (rejoins count
	// as joins), mirroring the flat runtime's bookkeeping.
	Joins, Deaths int
}

// Result summarises a sharded training run.
type Result struct {
	// Progress is the root core's bookkeeping: final Params, StartIter,
	// IterTimes (with Summary), the loss Curve and the lease RootGen.
	rootcore.Progress
	// Groups holds per-group statistics, indexed by group (external groups
	// keep their own statistics; their entries carry only the layout).
	Groups []GroupStats
	// GroupUploads counts the group sums the root accepted (one per group
	// per iteration); BatchedFrames counts how many of them arrived as a
	// coalesced multi-chunk batch (0 when every model fits one chunk).
	GroupUploads, BatchedFrames int
	// FencedSums counts group uploads rejected for carrying a lease
	// generation other than the root's.
	FencedSums int
	// Readoptions counts adoption handshakes beyond each group's first —
	// group masters that reconnected after a restart on either side.
	Readoptions int
	// Failovers records human-readable control-plane events (uplinks lost,
	// groups re-adopted), in order.
	Failovers []string
}

// groupSum is one reassembled group upload (or a dead uplink) posted by a
// reader goroutine to the root's collect loop.
type groupSum struct {
	group   int
	seq     int // uplink incarnation that produced it
	iter    int
	epoch   int
	rootGen int
	vec     []float64
	spans   []transport.PhaseSpan // group phase spans echoed on the final chunk
	batched bool                  // upload arrived as >1 coalesced chunks
	err     error
}

// Root is the top of the hierarchy: it owns the shard plan, spawns one
// in-process GroupMaster per coding group it serves itself, adopts external
// GroupRunners, and drives the global BSP loop over their TCP uplinks.
type Root struct {
	cfg    Config
	plan   *Plan
	core   *rootcore.Core // lease, store and training state
	lis    *transport.Listener
	groups []*groupMaster // indexed by group; nil for external groups
	wg     sync.WaitGroup
	stopc  chan struct{}
	closed sync.Once
	err    chan error
	inbox  chan groupSum

	// Uplink state, guarded by upMu. An uplink is nil while its group is
	// down (crashed runner, lost connection); adoption installs a new conn
	// and bumps the incarnation so frames from the dead conn are ignored.
	upMu         sync.Mutex
	uplink       []*transport.Conn
	upSeq        []int
	adoptedOnce  []bool
	external     []bool
	groupEpoch   []int   // reconciled per-group epoch floor
	groupMembers [][]int // reconciled per-group member IDs (sorted)
	sentSeq      []int   // uplink incarnation the current iteration's params went to
	serveIter    int     // iteration the run loop is currently collecting
	readoptions  int
	failovers    []string
	down         bool // set by Close: refuse further adoptions

	adoptedc chan int // adoption notifications for the collect loop

	// resume is the recovered checkpoint of a resumed bring-up: it seeds
	// newGroupMaster's controller restore.
	resume *checkpoint.State
}

// NewRoot validates the config, builds the shard plan, starts the root
// listener on addr ("127.0.0.1:0" for tests) and spawns the in-process
// group masters, each listening on its own address. Workers dial their
// group's address (GroupAddrs/GroupOf) with the elastic worker protocol.
// External groups attach themselves afterwards; WaitForWorkers covers their
// adoption.
func NewRoot(cfg Config, addr string) (*Root, error) {
	cc := cfg.core()
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Throughputs) == 0 {
		return nil, fmt.Errorf("%w: no workers", ErrBadConfig)
	}
	if err := cfg.checkScheme(); err != nil {
		return nil, err
	}
	if cfg.ChunkLen <= 0 {
		cfg.ChunkLen = DefaultChunkLen
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	if cfg.AdoptTimeout <= 0 {
		cfg.AdoptTimeout = 30 * time.Second
	}
	// Layout only: every group's strategy is owned by its controller (the
	// initial group-local replan builds it from the same estimates).
	plan, err := BuildPlanLayout(cfg.Throughputs, PlanConfig{
		K: cfg.K, S: cfg.S, GroupSize: cfg.GroupSize, FanIn: cfg.FanIn,
	})
	if err != nil {
		return nil, err
	}
	n := plan.NumGroups()
	r := &Root{
		cfg:          cfg,
		plan:         plan,
		groups:       make([]*groupMaster, n),
		uplink:       make([]*transport.Conn, n),
		upSeq:        make([]int, n),
		sentSeq:      make([]int, n),
		adoptedOnce:  make([]bool, n),
		external:     make([]bool, n),
		groupEpoch:   make([]int, n),
		groupMembers: make([][]int, n),
		stopc:        make(chan struct{}),
		err:          make(chan error, n+1),
		inbox:        make(chan groupSum, 2*n+4),
		adoptedc:     make(chan int, 2*n+4),
	}
	for g := range r.groupEpoch {
		r.groupEpoch[g] = -1
	}
	for _, g := range cfg.ExternalGroups {
		if g < 0 || g >= n {
			return nil, fmt.Errorf("%w: external group %d out of range (plan has %d groups)", ErrBadConfig, g, n)
		}
		r.external[g] = true
	}
	r.core, err = rootcore.Open(cc, addr, rootcore.Hooks{Restore: r.restoreFrom, Groups: r.groupStates})
	if err != nil {
		return nil, err
	}
	r.lis = r.core.Listener()
	r.serveIter = r.core.StartIter()
	// The adoption service runs for the root's lifetime: in-process masters
	// adopt during their construction below; external runners (and every
	// restart of either) adopt whenever they dial in.
	r.wg.Add(1)
	go r.acceptLoop()
	for g := 0; g < n; g++ {
		if r.external[g] {
			continue
		}
		gm, err := newGroupMaster(r, g)
		if err != nil {
			r.Close()
			return nil, err
		}
		r.groups[g] = gm
	}
	return r, nil
}

// SuspendLeaseRenewal stops the root from renewing its lease — the fault
// hook simulating a wedged (but not dead) root so a standby can take over.
func (r *Root) SuspendLeaseRenewal() { r.core.SuspendLeaseRenewal() }

// RootGen returns the lease generation this root runs under (0 without a
// lease).
func (r *Root) RootGen() int { return r.core.Gen() }

// acceptLoop serves adoption handshakes for the root's lifetime.
func (r *Root) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.lis.Accept()
		if err != nil {
			return
		}
		r.wg.Add(1)
		go r.adoptConn(conn)
	}
}

// adoptConn performs the root side of one adoption handshake: it validates
// the group's announcement, reconciles epoch floor and membership (both
// only ever grow), answers with the reconciled state plus the root's lease
// generation, installs the connection as the group's live uplink (bumping
// the incarnation so the dead conn's frames are ignored) and starts its
// reader.
func (r *Root) adoptConn(conn *transport.Conn) {
	defer r.wg.Done()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	env, err := conn.Recv()
	if err != nil || env.Type != transport.MsgAdopt || env.Adopt == nil {
		_ = conn.Close()
		return
	}
	g := env.Adopt.Group
	if g < 0 || g >= len(r.uplink) {
		_ = conn.Close()
		return
	}
	r.upMu.Lock()
	if r.down {
		r.upMu.Unlock()
		_ = conn.Close()
		return
	}
	if env.Adopt.Epoch > r.groupEpoch[g] {
		r.groupEpoch[g] = env.Adopt.Epoch
	}
	r.groupMembers[g] = mergeMembers(r.groupMembers[g], env.Adopt.Members)
	ack := &transport.Envelope{
		Type:    transport.MsgAdopt,
		Iter:    r.serveIter,
		RootGen: r.core.Gen(),
		Codec:   roster.NegotiateCodec(byte(r.core.Codec()), env.Codecs),
		Adopt: &transport.Adoption{
			Group:   g,
			Epoch:   r.groupEpoch[g],
			Members: append([]int(nil), r.groupMembers[g]...),
		},
	}
	if err := conn.Send(ack); err != nil {
		r.upMu.Unlock()
		_ = conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})
	if old := r.uplink[g]; old != nil {
		_ = old.Close()
	}
	r.upSeq[g]++
	seq := r.upSeq[g]
	r.uplink[g] = conn
	// A re-adoption is an uplink replaced on this root, or a surviving
	// group — one announcing a live plan epoch — adopting a root that has
	// never seen it (the warm-standby takeover path). Fresh groups announce
	// epoch -1, so crash-free runs count zero.
	detail := "adopted"
	if r.adoptedOnce[g] || env.Adopt.Epoch >= 0 {
		r.readoptions++
		r.failovers = append(r.failovers, fmt.Sprintf("group %d re-adopted at iteration %d (gen %d)", g, r.serveIter, r.core.Gen()))
		detail = "re-adopted"
	}
	r.adoptedOnce[g] = true
	serveIter := r.serveIter
	r.upMu.Unlock()
	r.cfg.Obs.Event(obs.Event{Kind: obs.EvAdoption, Iter: serveIter, Group: g, Detail: detail})
	// Reader first, notification second: the collect loop may resend the
	// current params the moment it learns of the adoption, and the reader
	// must already be draining the conn by then.
	r.wg.Add(1)
	go r.readUplink(g, seq, conn)
	select {
	case r.adoptedc <- g:
	case <-r.stopc:
	}
}

// mergeMembers unions two sorted-or-not ID slices into a sorted slice.
func mergeMembers(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	var out []int
	for _, id := range a {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, id := range b {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// readUplink reassembles one uplink incarnation's chunked batches into full
// group sums and posts them to the collect loop.
func (r *Root) readUplink(g, seq int, conn *transport.Conn) {
	defer r.wg.Done()
	var chunks []*transport.Envelope
	post := func(gs groupSum) bool {
		gs.group, gs.seq = g, seq
		select {
		case r.inbox <- gs:
			return true
		case <-r.stopc:
			return false
		}
	}
	for {
		env, err := conn.Recv()
		if err != nil {
			post(groupSum{err: err})
			return
		}
		if env.Type != transport.MsgGradient {
			continue
		}
		chunks = append(chunks, env)
		if env.Chunks != 0 && env.Chunk != env.Chunks-1 {
			continue
		}
		// Reassemble into a pooled buffer (the run loop returns it after the
		// reduce) and hand the received chunks straight back.
		total := 0
		for _, c := range chunks {
			total += len(c.Vector)
		}
		vec, err := transport.JoinChunks(grad.GetBuffer(total), chunks)
		for _, c := range chunks {
			grad.PutBuffer(c.Vector)
		}
		batched := len(chunks) > 1
		chunks = chunks[:0]
		if err != nil {
			post(groupSum{err: err})
			return
		}
		if !post(groupSum{iter: env.Iter, epoch: env.Epoch, rootGen: env.RootGen, vec: vec, spans: env.Spans, batched: batched}) {
			return
		}
	}
}

// markDown retires one uplink incarnation after its reader or a send
// failed: the conn is closed and the slot nilled so the next adoption
// installs a replacement. Frames from newer incarnations are untouched.
func (r *Root) markDown(g, seq int, cause error) {
	r.upMu.Lock()
	defer r.upMu.Unlock()
	if r.upSeq[g] != seq || r.uplink[g] == nil {
		return // already superseded
	}
	_ = r.uplink[g].Close()
	r.uplink[g] = nil
	r.failovers = append(r.failovers, fmt.Sprintf("group %d uplink lost at iteration %d: %v", g, r.serveIter, cause))
	r.cfg.Obs.Event(obs.Event{Kind: obs.EvUplink, Iter: r.serveIter, Group: g, Detail: fmt.Sprintf("uplink lost: %v", cause)})
}

// sendParams delivers one iteration's parameters, stamped with the root's
// generation and trace context, to the given groups: header encoded once,
// written to their uplinks concurrently — a group whose socket is full
// delays no other — and joined, so params may change again once it returns.
// A down external group is skipped (adoption will trigger a resend); a
// failed or missing in-process uplink is fatal.
func (r *Root) sendParams(iter int, params []float64, groups ...int) error {
	conns := make([]*transport.Conn, len(groups))
	seqs := make([]int, len(groups))
	r.upMu.Lock()
	for i, g := range groups {
		conns[i], seqs[i] = r.uplink[g], r.upSeq[g]
		r.sentSeq[g] = seqs[i]
	}
	r.upMu.Unlock()
	env := &transport.Envelope{Type: transport.MsgParams, Iter: iter, Vector: params, RootGen: r.core.Gen(), Trace: obs.TraceID(uint64(r.core.Gen()), -1, iter)}
	errs := transport.Broadcast(conns, env, r.cfg.IterTimeout)
	for i, g := range groups {
		switch {
		case conns[i] == nil:
			if !r.external[g] {
				return fmt.Errorf("%w: group %d uplink gone", ErrGroupFailed, g)
			}
		case errs[i] != nil:
			r.markDown(g, seqs[i], errs[i])
			if !r.external[g] {
				return fmt.Errorf("%w: group %d uplink: %v", ErrGroupFailed, g, errs[i])
			}
		}
	}
	return nil
}

// restoreFrom seeds adoption reconciliation from a recovered checkpoint: the
// per-group epoch floors and member sets (and, for in-process groups,
// newGroupMaster's controller restore). The root core restores the training
// state.
func (r *Root) restoreFrom(state *checkpoint.State) error {
	r.resume = state
	for g := range r.groupEpoch {
		if e, ok := state.GroupEpochs[g]; ok && e > r.groupEpoch[g] {
			r.groupEpoch[g] = e
		}
		r.groupMembers[g] = mergeMembers(r.groupMembers[g], state.GroupMembers[g])
	}
	return nil
}

// groupStates completes a snapshot with the per-group summaries. They come
// from the live in-process masters (epoch, members and the controller's
// throughput estimates); for external or not-yet-spawned groups, from the
// reconciled adoption state — so the fencing base is never narrowed and a
// promoted root re-plans from real history.
func (r *Root) groupStates(snap *checkpoint.Snapshot) {
	r.upMu.Lock()
	epochs := append([]int(nil), r.groupEpoch...)
	members := make([][]int, len(r.groupMembers))
	for g := range members {
		members[g] = append([]int(nil), r.groupMembers[g]...)
	}
	r.upMu.Unlock()
	for g := 0; g < r.plan.NumGroups(); g++ {
		if gm := r.groups[g]; gm != nil {
			snap.Groups = append(snap.Groups, gm.coreState())
			continue
		}
		snap.Groups = append(snap.Groups, checkpoint.GroupState{Group: g, Epoch: epochs[g], Members: members[g]})
	}
}

// Plan exposes the shard plan (groups, partition ownership, tree).
func (r *Root) Plan() *Plan { return r.plan }

// StartIter returns the first iteration this root will run (non-zero after
// a checkpoint resume).
func (r *Root) StartIter() int { return r.core.StartIter() }

// Addr returns the root listener address.
func (r *Root) Addr() string { return r.lis.Addr() }

// GroupAddrs returns each in-process group master's listen address, indexed
// by group ("" for external groups — their runners own their addresses).
func (r *Root) GroupAddrs() []string {
	out := make([]string, len(r.groups))
	for g, gm := range r.groups {
		if gm != nil {
			out[g] = gm.Eng.Addr()
		}
	}
	return out
}

// WaitForWorkers blocks until every in-process group has its planned worker
// quorum and every external group has completed its adoption handshake.
func (r *Root) WaitForWorkers(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, gm := range r.groups {
		if gm == nil {
			continue
		}
		if err := gm.waitForWorkers(time.Until(deadline)); err != nil {
			return err
		}
	}
	adoptBy := time.Now().Add(r.cfg.AdoptTimeout)
	if deadline.Before(adoptBy) {
		adoptBy = deadline
	}
	for g := range r.external {
		if !r.external[g] {
			continue
		}
		for {
			r.upMu.Lock()
			adopted := r.adoptedOnce[g]
			r.upMu.Unlock()
			if adopted {
				break
			}
			if time.Now().After(adoptBy) {
				return fmt.Errorf("%w: external group %d never adopted", ErrGroupFailed, g)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// Run executes the sharded BSP loop to completion and shuts everything
// down.
func (r *Root) Run() (*Result, error) {
	defer r.Close()
	res := &Result{}
	sums := make([][]float64, r.plan.NumGroups())
	all := make([]int, len(sums)) // every group, for the per-iteration broadcast
	for g := range all {
		all[g] = g
	}
	prog, err := r.core.Train(func(iter int, params []float64, sc *obs.IterScope) (grad.Gradient, int, error) {
		if err := r.collect(iter, params, sc, all, sums, res); err != nil {
			return nil, 0, err
		}
		sc.Phase(obs.PhaseReduce)
		total, err := r.plan.Tree.Aggregate(sums)
		if err != nil {
			return nil, 0, fmt.Errorf("iteration %d aggregate: %w", iter, err)
		}
		// The reduce copied out of the group sums: back to the pool their
		// uplink readers assembled them in.
		for g := range sums {
			grad.PutBuffer(sums[g])
			sums[g] = nil
		}
		// Epoch -1: plan epochs are group-local here; the epoch gauge is
		// owned by the group replan events.
		return total, -1, nil
	})
	if err != nil {
		return nil, err
	}

	// Graceful shutdown: stop the group masters, then collect their stats.
	r.upMu.Lock()
	conns := append([]*transport.Conn(nil), r.uplink...)
	r.upMu.Unlock()
	for _, conn := range conns {
		if conn == nil {
			continue
		}
		_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
		_ = conn.Send(&transport.Envelope{Type: transport.MsgShutdown})
		_ = conn.SetWriteDeadline(time.Time{})
	}
	for _, gm := range r.groups {
		if gm != nil {
			<-gm.done // the run loop exited
		}
	}
	res.Progress = *prog
	res.Groups = make([]GroupStats, len(r.groups))
	for g, gm := range r.groups {
		workers := len(r.plan.Groups[g].Workers)
		if gm != nil {
			res.Groups[g] = gm.coreStats(workers)
		} else {
			res.Groups[g] = GroupStats{Group: g, Workers: workers}
		}
	}
	r.upMu.Lock()
	res.Readoptions = r.readoptions
	res.Failovers = append([]string(nil), r.failovers...)
	r.upMu.Unlock()
	r.core.Release()
	return res, nil
}

// collect broadcasts one iteration's parameters to every group (all) and
// gathers each group's decoded sum into sums, resending to groups that
// re-adopt mid-iteration.
func (r *Root) collect(iter int, params []float64, sc *obs.IterScope, all []int, sums [][]float64, res *Result) error {
	start := time.Now()
	dim := len(params)
	r.upMu.Lock()
	r.serveIter = iter
	r.upMu.Unlock()
	sc.Phase(obs.PhaseBroadcast)
	if err := r.sendParams(iter, params, all...); err != nil {
		return r.drainErr(err)
	}
	sc.Phase(obs.PhaseCollect)
	// The root's patience must cover a group's full recovery budget: a
	// group master waits IterTimeout per attempt and retries up to
	// MaxRetries times after timeout-driven group-local migrations, so
	// aborting at one IterTimeout would make those retries unreachable.
	// The same budget bounds an external group's restart-and-readopt.
	rootBudget := time.Duration(r.cfg.MaxRetries+1)*r.cfg.IterTimeout + r.cfg.IterTimeout/2
	deadline := time.NewTimer(rootBudget)
	defer deadline.Stop()
	for pending := len(sums); pending > 0; {
		select {
		case gs := <-r.inbox:
			if gs.err != nil {
				if r.external[gs.group] {
					// A runner died or defected: retire the uplink and
					// keep collecting — its restart re-adopts and the
					// params are resent below. The trace keeps a partial
					// child span for the lost incarnation (Group -1: the
					// root's children are the groups themselves).
					r.markDown(gs.group, gs.seq, gs.err)
					sc.AddMember(obs.MemberSpan{Member: gs.group, Group: -1, Arrival: time.Since(start).Seconds(), Partial: true, Reason: obs.RDead})
					continue
				}
				return r.drainErr(fmt.Errorf("%w: group %d: %v", ErrGroupFailed, gs.group, gs.err))
			}
			if gs.rootGen != r.core.Gen() {
				res.FencedSums++
				r.cfg.Obs.OnReject(obs.RFenced)
				sc.AddMember(obs.MemberSpan{Member: gs.group, Group: -1, Arrival: time.Since(start).Seconds(), Spans: roster.ObsSpans(gs.spans), Partial: true, Reason: obs.RFenced})
				grad.PutBuffer(gs.vec)
				continue // an upload for a root generation this is not
			}
			if gs.iter != iter {
				grad.PutBuffer(gs.vec)
				continue // frame from a superseded iteration
			}
			if len(gs.vec) != dim || grad.InfOrNaN(gs.vec) {
				// A group master is in-process infrastructure: a mis-sized
				// or non-finite *sum* means training itself blew up, and
				// the group will not resend — fail now rather than burn
				// the whole recovery budget waiting for a frame that
				// cannot come.
				return fmt.Errorf("%w: group %d sent a non-finite or mis-sized sum at iteration %d", ErrGroupFailed, gs.group, iter)
			}
			if sums[gs.group] == nil {
				pending--
				// Stitch the group's echoed phase spans as this
				// iteration's child span (first accepted sum only — a
				// re-adopted group may double-send after a resend).
				sc.AddMember(obs.MemberSpan{Member: gs.group, Group: -1, Arrival: time.Since(start).Seconds(), Spans: roster.ObsSpans(gs.spans)})
			}
			grad.PutBuffer(sums[gs.group]) // a double-sent sum replaces the first
			sums[gs.group] = gs.vec
			r.upMu.Lock()
			if gs.epoch > r.groupEpoch[gs.group] {
				r.groupEpoch[gs.group] = gs.epoch
			}
			r.upMu.Unlock()
			res.GroupUploads++
			if gs.batched {
				res.BatchedFrames++
			}
		case g := <-r.adoptedc:
			// Resend only to an incarnation the broadcast did not reach:
			// the notification of an adoption that was already installed
			// when this iteration's params went out (the ones completed
			// during construction, typically) is stale.
			r.upMu.Lock()
			reached := r.upSeq[g] == r.sentSeq[g]
			r.upMu.Unlock()
			if sums[g] == nil && !reached {
				if err := r.sendParams(iter, params, g); err != nil {
					return r.drainErr(err)
				}
			}
		case <-r.stopc:
			return fmt.Errorf("%w: root closed at iteration %d", ErrGroupFailed, iter)
		case <-deadline.C:
			return fmt.Errorf("%w: iteration %d: %d group sums missing at timeout", ErrGroupFailed, iter, pending)
		}
	}
	return nil
}

// drainErr prefers a group's own fatal report (queued on r.err) over the
// secondary symptom err that surfaced at the root.
func (r *Root) drainErr(err error) error {
	select {
	case ferr := <-r.err:
		return ferr
	default:
		return err
	}
}

// Close tears down the root and every group master. Safe to call multiple
// times. Close never releases the lease — a closed-but-unreleased lease is
// a crash as far as a standby is concerned, which is exactly the semantics
// tests and failover drills need; Run's success path does release it.
func (r *Root) Close() {
	r.closed.Do(func() {
		close(r.stopc)
		r.upMu.Lock()
		r.down = true
		conns := append([]*transport.Conn(nil), r.uplink...)
		r.upMu.Unlock()
		for _, gm := range r.groups {
			if gm != nil {
				gm.shutdown(false)
			}
		}
		for _, conn := range conns {
			if conn != nil {
				_ = conn.Close()
			}
		}
		_ = r.lis.Close()
		r.wg.Wait()
		r.core.Close()
	})
}

// RunSharded is the one-call entry point: it builds the hierarchy on addr,
// invokes onListen (so the caller can dial workers at the group addresses),
// waits for every group's worker quorum and trains to completion.
func RunSharded(cfg Config, addr string, waitTimeout time.Duration, onListen func(*Root)) (*Result, error) {
	r, err := NewRoot(cfg, addr)
	if err != nil {
		return nil, err
	}
	if onListen != nil {
		onListen(r)
	}
	if err := r.WaitForWorkers(waitTimeout); err != nil {
		r.Close()
		return nil, err
	}
	return r.Run()
}
