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
	"sync/atomic"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/core"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ha"
	"github.com/hetgc/hetgc/internal/metrics"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
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
	// budget. GroupSize, FanIn and Scheme parameterise the sharding planner
	// (see PlanConfig).
	K, S      int
	GroupSize int
	FanIn     int
	Scheme    core.Kind
	// Throughputs are the initial per-worker speed estimates; their length
	// fixes the total worker count and the grouping.
	Throughputs []float64
	// Model, Optimizer, InitialParams, Iterations, SampleCount, IterTimeout,
	// LossEvery and LossFn mirror runtime.MasterConfig.
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

	// Deprecated: flat aliases for the embedded cluster blocks above, kept
	// for one release. Set DurabilityConfig.CheckpointDir (etc.) instead;
	// when both views are set the embedded field wins.
	CheckpointDir string
	// Deprecated: set DurabilityConfig.SnapshotEvery.
	SnapshotEvery int
	// Deprecated: set DurabilityConfig.Resume.
	Resume bool
	// Deprecated: set HAConfig.LeaseTTL.
	LeaseTTL time.Duration
	// Deprecated: set HAConfig.Holder.
	Holder string
	// Deprecated: set TelemetryConfig.Obs.
	Obs *obs.Metrics
}

// normalize merges the deprecated flat aliases into the embedded cluster
// blocks (the embedded field wins when both are set) and mirrors the merged
// values back onto the aliases, so internal reads through either view agree.
func (c *Config) normalize() {
	c.DurabilityConfig = c.DurabilityConfig.Merge(c.CheckpointDir, c.SnapshotEvery, c.Resume)
	c.HAConfig = c.HAConfig.Merge(c.LeaseTTL, c.Holder)
	c.TelemetryConfig = c.TelemetryConfig.Merge(c.Obs)
	c.CheckpointDir = c.DurabilityConfig.CheckpointDir
	c.SnapshotEvery = c.DurabilityConfig.SnapshotEvery
	c.Resume = c.DurabilityConfig.Resume
	c.LeaseTTL = c.HAConfig.LeaseTTL
	c.Holder = c.HAConfig.Holder
	c.Obs = c.TelemetryConfig.Obs
}

func (c *Config) validate() error {
	if c.Model == nil || c.Optimizer == nil {
		return fmt.Errorf("%w: model/optimizer required", ErrBadConfig)
	}
	if len(c.InitialParams) != c.Model.Dim() {
		return fmt.Errorf("%w: %d initial params, model wants %d", ErrBadConfig, len(c.InitialParams), c.Model.Dim())
	}
	if c.K <= 0 || c.S < 0 {
		return fmt.Errorf("%w: k=%d s=%d", ErrBadConfig, c.K, c.S)
	}
	if len(c.Throughputs) == 0 {
		return fmt.Errorf("%w: no workers", ErrBadConfig)
	}
	if c.Iterations <= 0 || c.SampleCount <= 0 {
		return fmt.Errorf("%w: iterations=%d samples=%d", ErrBadConfig, c.Iterations, c.SampleCount)
	}
	if c.IterTimeout <= 0 {
		return fmt.Errorf("%w: iteration timeout required", ErrBadConfig)
	}
	if c.Resume && c.CheckpointDir == "" {
		return fmt.Errorf("%w: resume requires a checkpoint directory", ErrBadConfig)
	}
	if c.LeaseTTL > 0 && c.CheckpointDir == "" {
		return fmt.Errorf("%w: lease requires a checkpoint directory", ErrBadConfig)
	}
	if _, err := c.wireCodec(); err != nil {
		return err
	}
	return nil
}

// wireCodec parses the configured codec preference (empty means raw).
func (c *Config) wireCodec() (grad.Codec, error) {
	if c.Wire.Codec == "" {
		return grad.CodecRaw, nil
	}
	codec, err := grad.ParseCodec(c.Wire.Codec)
	if err != nil {
		return grad.CodecRaw, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return codec, nil
}

// GroupStats summarises one group's run.
type GroupStats struct {
	// Group is the coding-group index; Workers its planned worker count.
	Group, Workers int
	// Epochs is the group-local plan epoch each iteration decoded under.
	Epochs []int
	// Replans is the group's migration history (initial plan included).
	Replans []elastic.ReplanEvent
	// StaleEpochRejected, StaleConnRejected, StragglersSkipped and
	// MalformedSkipped mirror the elastic master's fencing counters;
	// FencedRejected counts uploads fenced by root generation;
	// TelemetrySamples counts control-plane observations.
	StaleEpochRejected, StaleConnRejected, StragglersSkipped, MalformedSkipped, FencedRejected, TelemetrySamples int
	// Joins and Deaths count the group's membership events (rejoins count
	// as joins), mirroring the flat runtime's bookkeeping.
	Joins, Deaths int
}

// Result summarises a sharded training run.
type Result struct {
	// Params are the final parameters.
	Params []float64
	// StartIter is the first iteration this run executed (non-zero when the
	// root was resumed from a checkpoint).
	StartIter int
	// IterTimes are per-iteration wall times in seconds.
	IterTimes []float64
	// Summary summarises IterTimes.
	Summary metrics.Summary
	// Curve is (cumulative seconds, loss) when loss recording was enabled.
	Curve metrics.Series
	// Groups holds per-group statistics, indexed by group (external groups
	// keep their own statistics; their entries carry only the layout).
	Groups []GroupStats
	// GroupUploads counts the group sums the root accepted (one per group
	// per iteration); BatchedFrames counts how many of them arrived as a
	// coalesced multi-chunk batch (0 when every model fits one chunk).
	GroupUploads, BatchedFrames int
	// RootGen is the lease generation the run held (0 without a lease);
	// FencedSums counts group uploads rejected for carrying a different
	// generation.
	RootGen, FencedSums int
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
	codec  grad.Codec // uplink codec preference offered at each adoption
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

	// Durable-state wiring (nil/zero without CheckpointDir).
	store     *checkpoint.Store
	resume    *checkpoint.State
	params    []float64
	startIter int
	step      int
	clock     float64

	// HA wiring (nil/zero without LeaseTTL).
	lease          *ha.Lease
	gen            int
	stopRenew      func()
	renewSuspended atomic.Bool
}

// NewRoot validates the config, builds the shard plan, starts the root
// listener on addr ("127.0.0.1:0" for tests) and spawns the in-process
// group masters, each listening on its own address. Workers dial their
// group's address (GroupAddrs/GroupOf) with the elastic worker protocol.
// External groups attach themselves afterwards; WaitForWorkers covers their
// adoption.
func NewRoot(cfg Config, addr string) (*Root, error) {
	cfg.normalize()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ChunkLen <= 0 {
		cfg.ChunkLen = DefaultChunkLen
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	// Layout only: every group's strategy is owned by its controller (the
	// initial group-local replan builds it from the same estimates).
	if cfg.CheckpointDir != "" && cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 10
		cfg.DurabilityConfig.SnapshotEvery = 10
	}
	if cfg.AdoptTimeout <= 0 {
		cfg.AdoptTimeout = 30 * time.Second
	}
	plan, err := BuildPlanLayout(cfg.Throughputs, PlanConfig{
		K: cfg.K, S: cfg.S, GroupSize: cfg.GroupSize, FanIn: cfg.FanIn, Scheme: cfg.Scheme,
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
		params:       append([]float64(nil), cfg.InitialParams...),
		stopRenew:    func() {},
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
	lis, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	r.lis = lis
	if cfg.LeaseTTL > 0 {
		holder := cfg.Holder
		if holder == "" {
			holder = "shard-root"
		}
		lease, err := ha.Acquire(cfg.CheckpointDir, holder, lis.Addr(), cfg.LeaseTTL)
		if err != nil {
			_ = lis.Close()
			return nil, err
		}
		r.lease, r.gen = lease, lease.Gen()
		cfg.Obs.OnLease(uint64(lease.Gen()))
		stop := make(chan struct{})
		var rwg sync.WaitGroup
		rwg.Add(1)
		go r.renewLoop(stop, &rwg)
		var once sync.Once
		r.stopRenew = func() { once.Do(func() { close(stop); rwg.Wait() }) }
	}
	if cfg.CheckpointDir != "" {
		if cfg.Resume {
			state, err := checkpoint.Recover(cfg.CheckpointDir)
			if err != nil {
				r.Close()
				return nil, err
			}
			if err := r.restoreFrom(state); err != nil {
				r.Close()
				return nil, err
			}
			if r.store, err = checkpoint.Reopen(cfg.CheckpointDir); err != nil {
				r.Close()
				return nil, err
			}
			if r.lease != nil {
				r.store.SetGuard(r.lease.Check)
			}
			// Anchor a fresh generation with the resumed state before any
			// journal append (see runtime.NewElasticMaster).
			if err := r.store.WriteSnapshot(r.snapshot(r.startIter)); err != nil {
				r.Close()
				return nil, err
			}
		} else {
			if r.store, err = checkpoint.Create(cfg.CheckpointDir); err != nil {
				r.Close()
				return nil, err
			}
			if r.lease != nil {
				r.store.SetGuard(r.lease.Check)
			}
		}
	}
	if r.store != nil {
		r.store.SetMetrics(cfg.Obs)
	}
	cfg.Obs.BindWire(transport.Wire)
	cfg.Obs.BindWireCodecs(grad.CodecNames(), transport.WireCodec)
	r.codec, _ = cfg.wireCodec() // validated above
	r.serveIter = r.startIter
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

// renewLoop keeps the root's lease alive until stopped, suspended (fault
// injection) or irrecoverably refused.
func (r *Root) renewLoop(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	interval := r.lease.TTL() / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if r.renewSuspended.Load() {
				return
			}
			if err := r.lease.Renew(); err != nil {
				return
			}
			r.cfg.Obs.OnRenewal()
		}
	}
}

// SuspendLeaseRenewal stops the root from renewing its lease — the fault
// hook simulating a wedged (but not dead) root so a standby can take over.
func (r *Root) SuspendLeaseRenewal() { r.renewSuspended.Store(true) }

// RootGen returns the lease generation this root runs under (0 without a
// lease).
func (r *Root) RootGen() int { return r.gen }

// fenced maps a run failure to the fencing verdict: if the root's lease has
// been taken over, the real error is ha.ErrFenced (the reported failure is
// just how the deposition surfaced).
func (r *Root) fenced(err error) error {
	if r.lease == nil || err == nil || errors.Is(err, ha.ErrFenced) {
		return err
	}
	if verr := r.lease.Verify(); verr != nil && errors.Is(verr, ha.ErrFenced) {
		return fmt.Errorf("%w (run failed: %v)", verr, err)
	}
	return err
}

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
		RootGen: r.gen,
		Codec:   roster.NegotiateCodec(byte(r.codec), env.Codecs),
		Caps:    env.Caps & transport.CapVectorFrame,
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
	if ack.Caps != 0 {
		conn.UseVectorFrames()
	}
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
		r.failovers = append(r.failovers, fmt.Sprintf("group %d re-adopted at iteration %d (gen %d)", g, r.serveIter, r.gen))
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

// toObsSpans copies wire phase spans into trace spans.
func toObsSpans(ws []transport.PhaseSpan) []obs.Span {
	if len(ws) == 0 {
		return nil
	}
	out := make([]obs.Span, len(ws))
	for i, sp := range ws {
		out[i] = obs.Span{Phase: sp.Phase, Seconds: sp.Seconds}
	}
	return out
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
// generation and trace context, to the given groups: encoded once, written
// to their uplinks concurrently — a group whose socket is full delays no
// other — and joined, so params may change again once it returns. A down
// external group is skipped (adoption will trigger a resend); a failed or
// missing in-process uplink is fatal.
func (r *Root) sendParams(iter int, params []float64, groups ...int) error {
	conns := make([]*transport.Conn, len(groups))
	seqs := make([]int, len(groups))
	r.upMu.Lock()
	for i, g := range groups {
		conns[i], seqs[i] = r.uplink[g], r.upSeq[g]
		r.sentSeq[g] = seqs[i]
	}
	r.upMu.Unlock()
	env := &transport.Envelope{Type: transport.MsgParams, Iter: iter, Vector: params, RootGen: r.gen, Trace: obs.TraceID(uint64(r.gen), -1, iter)}
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

// restoreFrom rebuilds the root's durable starting state from a recovered
// checkpoint: parameters, optimizer state and iteration counter, plus the
// per-group epoch floors and member sets that seed adoption reconciliation
// (and, for in-process groups, newGroupMaster's controller restore).
func (r *Root) restoreFrom(state *checkpoint.State) error {
	r.resume = state
	ts, err := state.RestoreTraining(r.cfg.Model.Dim(), r.cfg.Optimizer)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if ts.Params != nil {
		r.params = ts.Params
	}
	r.startIter, r.step, r.clock = ts.Iter, ts.Step, ts.Clock
	r.upMu.Lock()
	for g := range r.groupEpoch {
		if e, ok := state.GroupEpochs[g]; ok && e > r.groupEpoch[g] {
			r.groupEpoch[g] = e
		}
		r.groupMembers[g] = mergeMembers(r.groupMembers[g], state.GroupMembers[g])
	}
	r.upMu.Unlock()
	return nil
}

// snapshot assembles the durable state at an iteration boundary. Group
// summaries come from the live in-process masters (epoch, members and the
// controller's throughput estimates); for external or not-yet-spawned
// groups, from the reconciled adoption state — so the fencing base is never
// narrowed and a promoted root re-plans from real history.
func (r *Root) snapshot(nextIter int) *checkpoint.Snapshot {
	snap := &checkpoint.Snapshot{
		Iter: nextIter, Epoch: -1, Step: r.step, Clock: r.clock,
		Params: append([]float64(nil), r.params...),
	}
	if so, ok := r.cfg.Optimizer.(ml.StatefulOptimizer); ok {
		snap.OptVecs, snap.OptStep = so.OptimizerState()
	}
	r.upMu.Lock()
	epochs := append([]int(nil), r.groupEpoch...)
	members := make([][]int, len(r.groupMembers))
	for g := range members {
		members[g] = append([]int(nil), r.groupMembers[g]...)
	}
	r.upMu.Unlock()
	for g := 0; g < r.plan.NumGroups(); g++ {
		if gm := r.groups[g]; gm != nil {
			snap.Groups = append(snap.Groups, gm.groupState())
			continue
		}
		snap.Groups = append(snap.Groups, checkpoint.GroupState{Group: g, Epoch: epochs[g], Members: members[g]})
	}
	return snap
}

// persist journals one completed iteration and snapshots on the configured
// cadence. No-op without a checkpoint store.
func (r *Root) persist(iter int) error {
	if r.store == nil {
		return nil
	}
	if err := r.store.Err(); err != nil {
		return fmt.Errorf("iteration %d: journal writes failing: %w", iter, err)
	}
	if err := r.store.AppendIter(iter, 0, r.step); err != nil {
		return fmt.Errorf("iteration %d: %w", iter, err)
	}
	if (iter+1)%r.cfg.SnapshotEvery == 0 || iter+1 == r.cfg.Iterations {
		if err := r.store.WriteSnapshot(r.snapshot(iter + 1)); err != nil {
			return fmt.Errorf("iteration %d: %w", iter, err)
		}
	}
	return nil
}

// Plan exposes the shard plan (groups, partition ownership, tree).
func (r *Root) Plan() *Plan { return r.plan }

// StartIter returns the first iteration this root will run (non-zero after
// a checkpoint resume).
func (r *Root) StartIter() int { return r.startIter }

// Addr returns the root listener address.
func (r *Root) Addr() string { return r.lis.Addr() }

// GroupAddrs returns each in-process group master's listen address, indexed
// by group ("" for external groups — their runners own their addresses).
func (r *Root) GroupAddrs() []string {
	out := make([]string, len(r.groups))
	for g, gm := range r.groups {
		if gm != nil {
			out[g] = gm.addr()
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
	dim := r.cfg.Model.Dim()
	params := append([]float64(nil), r.params...)
	res := &Result{Curve: metrics.Series{Name: "sharded"}, StartIter: r.startIter, RootGen: r.gen}
	clock := r.clock
	if r.cfg.LossFn != nil {
		if l, err := r.cfg.LossFn(params); err == nil {
			res.Curve.Append(clock, l)
		}
	}

	sums := make([][]float64, r.plan.NumGroups())
	all := make([]int, len(sums)) // every group, for the per-iteration broadcast
	for g := range all {
		all[g] = g
	}
	for iter := r.startIter; iter < r.cfg.Iterations; iter++ {
		start := time.Now()
		r.upMu.Lock()
		r.serveIter = iter
		r.upMu.Unlock()
		// Epoch -1: plan epochs are group-local here; the epoch gauge is
		// owned by the group replan events.
		sc := r.cfg.Obs.StartIter(iter, -1)
		sc.SetTraceID(obs.TraceID(uint64(r.gen), -1, iter))
		sc.Phase(obs.PhaseBroadcast)
		if err := r.sendParams(iter, params, all...); err != nil {
			return nil, r.fenced(r.drainErr(err))
		}
		sc.Phase(obs.PhaseCollect)
		pending := len(sums)
		// The root's patience must cover a group's full recovery budget: a
		// group master waits IterTimeout per attempt and retries up to
		// MaxRetries times after timeout-driven group-local migrations, so
		// aborting at one IterTimeout would make those retries unreachable.
		// The same budget bounds an external group's restart-and-readopt.
		rootBudget := time.Duration(r.cfg.MaxRetries+1)*r.cfg.IterTimeout + r.cfg.IterTimeout/2
		deadline := time.NewTimer(rootBudget)
		for pending > 0 {
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
					deadline.Stop()
					return nil, r.fenced(r.drainErr(fmt.Errorf("%w: group %d: %v", ErrGroupFailed, gs.group, gs.err)))
				}
				if gs.rootGen != r.gen {
					res.FencedSums++
					r.cfg.Obs.OnReject(obs.RFenced)
					sc.AddMember(obs.MemberSpan{Member: gs.group, Group: -1, Arrival: time.Since(start).Seconds(), Spans: toObsSpans(gs.spans), Partial: true, Reason: obs.RFenced})
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
					deadline.Stop()
					return nil, fmt.Errorf("%w: group %d sent a non-finite or mis-sized sum at iteration %d", ErrGroupFailed, gs.group, iter)
				}
				if sums[gs.group] == nil {
					pending--
					// Stitch the group's echoed phase spans as this
					// iteration's child span (first accepted sum only — a
					// re-adopted group may double-send after a resend).
					sc.AddMember(obs.MemberSpan{Member: gs.group, Group: -1, Arrival: time.Since(start).Seconds(), Spans: toObsSpans(gs.spans)})
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
						deadline.Stop()
						return nil, r.fenced(r.drainErr(err))
					}
				}
			case <-r.stopc:
				deadline.Stop()
				return nil, fmt.Errorf("%w: root closed at iteration %d", ErrGroupFailed, iter)
			case <-deadline.C:
				deadline.Stop()
				return nil, r.fenced(fmt.Errorf("%w: iteration %d: %d group sums missing at timeout", ErrGroupFailed, iter, pending))
			}
		}
		deadline.Stop()

		sc.Phase(obs.PhaseReduce)
		total, err := r.plan.Tree.Aggregate(sums)
		if err != nil {
			return nil, fmt.Errorf("iteration %d aggregate: %w", iter, err)
		}
		// The reduce copied out of the group sums: back to the pool their
		// uplink readers assembled them in.
		for g := range sums {
			grad.PutBuffer(sums[g])
			sums[g] = nil
		}
		g := grad.Gradient(total)
		g.Scale(1 / float64(r.cfg.SampleCount))
		sc.Phase(obs.PhaseStep)
		if err := r.cfg.Optimizer.Step(params, g); err != nil {
			return nil, fmt.Errorf("iteration %d step: %w", iter, err)
		}
		r.step++
		elapsed := time.Since(start).Seconds()
		clock += elapsed
		res.IterTimes = append(res.IterTimes, elapsed)
		if r.cfg.LossFn != nil && r.cfg.LossEvery > 0 && (iter+1)%r.cfg.LossEvery == 0 {
			if l, err := r.cfg.LossFn(params); err == nil {
				res.Curve.Append(clock, l)
			}
		}
		r.params, r.clock = params, clock
		sc.Phase(obs.PhasePersist)
		if err := r.persist(iter); err != nil {
			return nil, r.fenced(err)
		}
		sc.End()
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
			gm.waitDone()
		}
	}
	res.Params = params
	res.Summary = metrics.Summarize(res.IterTimes)
	res.Groups = make([]GroupStats, len(r.groups))
	for g, gm := range r.groups {
		if gm != nil {
			res.Groups[g] = gm.stats()
		} else {
			res.Groups[g] = GroupStats{Group: g, Workers: len(r.plan.Groups[g].Workers)}
		}
	}
	r.upMu.Lock()
	res.Readoptions = r.readoptions
	res.Failovers = append([]string(nil), r.failovers...)
	r.upMu.Unlock()
	if r.lease != nil {
		r.stopRenew()
		_ = r.lease.Release()
	}
	return res, nil
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
		r.stopRenew()
		close(r.stopc)
		r.upMu.Lock()
		r.down = true
		conns := append([]*transport.Conn(nil), r.uplink...)
		r.upMu.Unlock()
		for _, gm := range r.groups {
			if gm != nil {
				gm.close()
			}
		}
		for _, conn := range conns {
			if conn != nil {
				_ = conn.Close()
			}
		}
		_ = r.lis.Close()
		r.wg.Wait()
		if r.store != nil {
			_ = r.store.Close()
		}
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
