// The per-group master: an elastic BSP master scoped to one coding group.
// It admits the group's workers over TCP with the elastic worker protocol,
// keeps a group-local control plane (its own elastic.Controller, its own
// epoch counter), migrates only its own workers on drift or churn, decodes
// the group's gradient sum with the shared decode-plan cache and kernels,
// and streams that sum to the root as one coalesced chunked batch per
// iteration.
//
// Membership, generation fencing, migration delivery and the epoch-fenced
// collect are delegated to internal/roster — the same engine behind the
// flat runtime.ElasticMaster — so a fencing fix lands once and is verified
// against both runtimes by the shared conformance suite.
//
// Two deployments share this file's core. The in-process groupMaster is
// spawned by NewRoot and lives and dies with the root. The out-of-process
// GroupRunner (runner.go) wraps the same core in an adoption loop so the
// group survives root restarts and can itself be restarted from its own
// journal.
package shard

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/dataplane"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/estimate"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/roster"
	"github.com/hetgc/hetgc/internal/transport"
)

// groupCore is the group BSP machinery shared by the in-process groupMaster
// and the restartable GroupRunner: one roster engine plus the epoch-fenced
// iterate/migrate/retry policy.
type groupCore struct {
	eng         *roster.Engine
	g           int
	iterTimeout time.Duration
	maxRetries  int
	obs         *obs.Metrics
	codec       grad.Codec // uplink codec negotiated at the last adoption

	// Run statistics (owned by the serving goroutine; read after it exits).
	epochs   []int
	runStats roster.Stats
	cache    obs.CacheTracker

	// Group-level phase spans of the last completed iteration, echoed on the
	// uplink's final chunk so the root stitches group children into its
	// trace (owned by the serving goroutine). lastUpSec (Float64bits) is the
	// previous uplink send's duration — the in-process master sends from a
	// dedicated uploader goroutine, hence atomic.
	lastSpans []transport.PhaseSpan
	lastUpSec atomic.Uint64
}

// migrate builds the group's next epoch and delivers (epoch, assignment) to
// every member of it via the roster engine.
func (gc *groupCore) migrate(iter int, reason string) (*elastic.Plan, error) {
	plan, err := gc.eng.Migrate(iter, reason)
	if err != nil {
		return nil, fmt.Errorf("%w: group %d: %v", ErrGroupFailed, gc.g, err)
	}
	return plan, nil
}

// iteration runs one group BSP iteration and returns the group's gradient
// sum (a pooled buffer the caller must PutBuffer) and the epoch it decoded
// under. Timeouts and fatal deaths force a group-local migration and a
// retry, bounded by maxRetries.
func (gc *groupCore) iteration(iter int, params []float64, planRef **elastic.Plan) (grad.Gradient, int, error) {
	dim := len(params)
	if replan, reason := gc.eng.ShouldReplan(iter); replan {
		p, err := gc.migrate(iter, reason)
		if err != nil {
			return nil, 0, err
		}
		*planRef = p
	}
	if *planRef == nil {
		// A session that starts without a plan — a runner re-adopting after
		// an uplink loss — must migrate before it can broadcast: the fresh
		// plan also lands above any epoch floor raised by the adoption ack.
		p, err := gc.migrate(iter, "adopt")
		if err != nil {
			return nil, 0, err
		}
		*planRef = p
	}
	retries := 0
	iterStart := time.Now()
	for {
		plan := *planRef
		gc.eng.BroadcastParams(plan, iter, params)
		coeffs, coded, ok := gc.eng.Collect(plan, iter, dim, gc.iterTimeout, &gc.runStats)
		if ok {
			// The group's worker child spans feed the attribution families
			// directly (the root's trace children are the groups themselves;
			// worker-level detail lives in the group-labeled metrics).
			for _, ms := range gc.eng.TakeContribs(iter) {
				gc.obs.OnMemberSpan(ms)
			}
			collectSec := time.Since(iterStart).Seconds()
			combineStart := time.Now()
			sum := grad.GetBuffer(dim)
			if err := grad.CombineInto(sum, coeffs, coded); err != nil {
				grad.PutBuffer(sum)
				return nil, 0, fmt.Errorf("group %d iter %d combine: %w", gc.g, iter, err)
			}
			gc.eng.Release(coded)
			// Group-level spans for the uplink echo: the gather (the group's
			// workers computing and uploading) reads as compute, the combine
			// as encode — the same span family workers report, so one trace
			// view renders both tiers.
			gc.lastSpans = []transport.PhaseSpan{
				{Phase: obs.PhaseCompute, Seconds: collectSec},
				{Phase: obs.PhaseEncode, Seconds: time.Since(combineStart).Seconds()},
			}
			if gc.obs != nil {
				cs := plan.Strategy.DecodeCacheStats()
				gc.cache.Fold(gc.obs, plan.Strategy, cs.Hits, cs.Misses)
			}
			return sum, plan.Epoch, nil
		}
		// The epoch cannot complete: group-local migrate + retry.
		retries++
		if retries > gc.maxRetries {
			return nil, 0, fmt.Errorf("%w: group %d iteration %d undecodable after %d migrations", ErrGroupFailed, gc.g, iter, retries-1)
		}
		p, err := gc.migrate(iter, "churn")
		if err != nil {
			return nil, 0, err
		}
		*planRef = p
	}
}

// uplinkSpans assembles the phase spans echoed on the group's uplink: the
// last iteration's group-level spans plus the PREVIOUS upload's send
// duration (a sender cannot time its own in-flight upload).
func (gc *groupCore) uplinkSpans() []transport.PhaseSpan {
	spans := append([]transport.PhaseSpan(nil), gc.lastSpans...)
	if prev := math.Float64frombits(gc.lastUpSec.Load()); prev > 0 {
		spans = append(spans, transport.PhaseSpan{Phase: obs.PhaseUpload, Seconds: prev})
	}
	return spans
}

// noteUplink records one uplink send's duration for the next iteration's
// upload span.
func (gc *groupCore) noteUplink(seconds float64) {
	gc.lastUpSec.Store(math.Float64bits(seconds))
}

// adopt performs the group side of the adoption handshake on a freshly
// dialed root connection: it announces the group's live epoch and members,
// and applies the root's reply — the epoch floor the root recorded for this
// group (reconciled into the controller so post-adoption plans fence every
// pre-adoption upload) and the root's lease generation. It returns the
// adopted generation and the iteration the root will serve next.
func (gc *groupCore) adopt(conn *transport.Conn, timeout time.Duration) (gen, nextIter int, err error) {
	members := gc.eng.MemberIDs()
	epoch := gc.eng.Epoch()
	if epoch < -1 {
		epoch = -1
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	advertised := grad.AdvertiseCodecs()
	err = conn.Send(&transport.Envelope{
		Type:   transport.MsgAdopt,
		Codecs: advertised,
		Caps:   transport.CapVectorFrame,
		Adopt:  &transport.Adoption{Group: gc.g, Epoch: epoch, Members: members},
	})
	if err != nil {
		return 0, 0, fmt.Errorf("group %d adoption: %w", gc.g, err)
	}
	ack, err := conn.Recv()
	if err != nil {
		return 0, 0, fmt.Errorf("group %d adoption ack: %w", gc.g, err)
	}
	if ack.Type != transport.MsgAdopt || ack.Adopt == nil || ack.Adopt.Group != gc.g {
		return 0, 0, fmt.Errorf("%w: group %d: bad adoption ack %v", ErrBadConfig, gc.g, ack.Type)
	}
	// The uplink carries vector frames once the root's ack names the
	// capability too; an old root's ack has none and the uplink stays on gob.
	if ack.Caps&transport.CapVectorFrame != 0 {
		conn.UseVectorFrames()
	}
	// Honor the root's chosen uplink codec only if we advertised it — an old
	// root's zero value (or a bogus byte) means raw.
	gc.codec = grad.CodecRaw
	if c := grad.Codec(ack.Codec); c != grad.CodecRaw && c.Valid() {
		for _, adv := range advertised {
			if adv == ack.Codec {
				gc.codec = c
				break
			}
		}
	}
	gc.eng.RaiseEpochBase(ack.Adopt.Epoch + 1)
	gc.eng.SetRootGen(ack.RootGen)
	return ack.RootGen, ack.Iter, nil
}

// coreState summarises the group's durable state: its highest plan epoch,
// every member ID it admitted, and the live control-plane state (throughput
// estimates), so a resumed or promoted root re-plans from real history.
func (gc *groupCore) coreState() checkpoint.GroupState {
	gs := checkpoint.GroupState{Group: gc.g, Epoch: gc.eng.Epoch(), Ctrl: gc.eng.ControllerState()}
	for _, ms := range gs.Ctrl.Members {
		gs.Members = append(gs.Members, ms.ID)
	}
	sort.Ints(gs.Members)
	return gs
}

// coreStats snapshots the group's counters after the serving loop exited.
func (gc *groupCore) coreStats(workers int) GroupStats {
	return GroupStats{
		Group:              gc.g,
		Workers:            workers,
		Epochs:             append([]int(nil), gc.epochs...),
		Replans:            gc.eng.Events(),
		StaleEpochRejected: gc.runStats.StaleEpochRejected,
		StaleConnRejected:  gc.runStats.StaleConnRejected,
		StragglersSkipped:  gc.runStats.StragglersSkipped,
		MalformedSkipped:   gc.runStats.MalformedSkipped,
		FencedRejected:     gc.runStats.FencedRejected,
		TelemetrySamples:   gc.runStats.TelemetrySamples,
		Joins:              gc.eng.Joins(),
		Deaths:             gc.eng.Deaths(),
	}
}

// buildGroupController constructs (and, on resume, restores) one group's
// control plane. Recovery precedence: a snapshot-carried controller state —
// real throughput history — wins over the planned-throughput priors derived
// from member IDs alone. Every restored member starts dead (its connection
// died with the previous incarnation) and the epoch base is raised above
// everything the journal recorded.
func buildGroupController(cfg *Config, grp *Group, g int, ctrlState *elastic.ControllerState, memberIDs []int, epochFloor int, has bool) (*elastic.Controller, []int, error) {
	ctrl, err := elastic.NewController(elastic.Config{
		K: len(grp.Parts), S: cfg.S, Scheme: cfg.Scheme,
		Alpha: cfg.Alpha, DriftThreshold: cfg.DriftThreshold,
		MinObservations: cfg.MinObservations, CooldownIters: cfg.CooldownIters,
		InitialRate: cfg.InitialRate,
	}, rand.New(rand.NewSource(cfg.Seed+int64(g)+1)))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: group %d: %v", ErrBadConfig, g, err)
	}
	var recovered []int
	switch {
	case ctrlState != nil && len(ctrlState.Members) > 0:
		cs := &elastic.ControllerState{LastReplan: -1, Events: ctrlState.Events}
		seen := make(map[int]bool)
		for _, ms := range ctrlState.Members {
			ms.Alive = false
			cs.Members = append(cs.Members, ms)
			seen[ms.ID] = true
			recovered = append(recovered, ms.ID)
		}
		// Journal-only joiners (admitted after the snapshot) follow with cold
		// priors.
		for _, id := range memberIDs {
			if !seen[id] {
				cs.Members = append(cs.Members, elastic.MemberState{ID: id})
				recovered = append(recovered, id)
			}
		}
		if err := ctrl.Restore(cs); err != nil {
			return nil, nil, fmt.Errorf("%w: group %d: %v", ErrBadConfig, g, err)
		}
	case len(memberIDs) > 0:
		cs := &elastic.ControllerState{LastReplan: -1}
		for i, id := range memberIDs {
			prior := 0.0
			if i < len(grp.Workers) {
				prior = cfg.Throughputs[grp.Workers[i]]
			}
			cs.Members = append(cs.Members, elastic.MemberState{
				ID: id, Meter: estimate.MeterState{Prior: prior},
			})
		}
		if err := ctrl.Restore(cs); err != nil {
			return nil, nil, fmt.Errorf("%w: group %d: %v", ErrBadConfig, g, err)
		}
		recovered = memberIDs
	}
	if has {
		ctrl.SetEpochBase(epochFloor + 1)
	}
	sort.Ints(recovered)
	return ctrl, recovered, nil
}

// newGroupEngine builds the roster engine for one group on lis. Partition
// indices in assignments are global (the worker fetches data by global
// partition ID), so the engine translates through the group's partition
// slice and advertises the global K.
func newGroupEngine(cfg *Config, grp *Group, g int, ctrl *elastic.Controller, recovered []int, rec roster.Recorder, lis *transport.Listener) (*roster.Engine, error) {
	codec, _ := cfg.wireCodec() // validated with the rest of the config
	rcfg := roster.Config{
		Controller:   ctrl,
		WriteTimeout: cfg.IterTimeout,
		InboxSize:    2*len(grp.Workers) + 8,
		K:            cfg.K, // global K: partition IDs are global
		S:            cfg.S,
		Codec:        byte(codec),
		PartitionMap: grp.Parts,
		Recovered:    recovered,
		Recorder:     rec,
		Obs:          cfg.Obs,
		ObsGroup:     g,
		Prior: func(joinSeq int) float64 {
			if joinSeq < len(grp.Workers) {
				return cfg.Throughputs[grp.Workers[joinSeq]]
			}
			return 0
		},
	}
	if cfg.PartitionSource != nil {
		// The group master doubles as its workers' data plane. Partition
		// indices are global, so the root-wide source serves every group;
		// each engine caches only the blobs its own workers request.
		rcfg.PartitionBlob = dataplane.NewSource(cfg.PartitionSource, cfg.K).Blob
	}
	eng, err := roster.New(rcfg, lis)
	if err != nil {
		_ = lis.Close()
		return nil, fmt.Errorf("%w: group %d: %v", ErrBadConfig, g, err)
	}
	return eng, nil
}

// groupMaster runs one coding group in-process, under the root that spawned
// it.
type groupMaster struct {
	groupCore
	root    *Root
	up      *transport.Conn // uplink to the root (run loop is its only user)
	rootGen int             // the root lease generation adopted at construction

	done chan struct{}
}

// newGroupMaster builds the group's control plane, starts its worker
// listener, dials the root and performs the adoption handshake (announcing
// the recovered membership, adopting the root's lease generation).
func newGroupMaster(r *Root, g int) (*groupMaster, error) {
	grp := r.plan.Groups[g]
	var ctrlState *elastic.ControllerState
	var memberIDs []int
	epochFloor, has := 0, false
	if st := r.resume; st != nil {
		memberIDs = st.GroupMembers[g]
		if st.Snap != nil {
			for i := range st.Snap.Groups {
				if st.Snap.Groups[i].Group == g {
					ctrlState = st.Snap.Groups[i].Ctrl
				}
			}
		}
		if e, ok := st.GroupEpochs[g]; ok {
			epochFloor, has = e, true
		}
	}
	ctrl, recovered, err := buildGroupController(&r.cfg, grp, g, ctrlState, memberIDs, epochFloor, has)
	if err != nil {
		return nil, err
	}
	var rec roster.Recorder
	if r.store != nil {
		rec = r.store.GroupRecorder(g)
	}
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	eng, err := newGroupEngine(&r.cfg, grp, g, ctrl, recovered, rec, lis)
	if err != nil {
		return nil, err
	}
	up, err := transport.Dial(r.lis.Addr(), 10*time.Second)
	if err != nil {
		eng.Shutdown(false)
		return nil, err
	}
	gm := &groupMaster{
		groupCore: groupCore{eng: eng, g: g, iterTimeout: r.cfg.IterTimeout, maxRetries: r.cfg.MaxRetries, obs: r.cfg.Obs},
		root:      r,
		up:        up,
		done:      make(chan struct{}),
	}
	gen, _, err := gm.adopt(up, 10*time.Second)
	if err != nil {
		eng.Shutdown(false)
		_ = up.Close()
		return nil, err
	}
	gm.rootGen = gen
	go gm.run()
	return gm, nil
}

// addr returns the group's worker listen address.
func (gm *groupMaster) addr() string { return gm.eng.Addr() }

// waitForWorkers blocks until the group's planned worker count has joined.
func (gm *groupMaster) waitForWorkers(timeout time.Duration) error {
	want := len(gm.root.plan.Groups[gm.g].Workers)
	if err := gm.eng.WaitForMembers(want, timeout); err != nil {
		return fmt.Errorf("%w: group %d: %v", ErrGroupFailed, gm.g, err)
	}
	return nil
}

// run is the group master's main loop: it serves root broadcasts until
// shutdown, running one epoch-fenced group iteration per MsgParams and
// answering with the group's decoded sum as a single coalesced batch of
// chunks, stamped with the adopted root generation. Chunking, quantization
// and the batched write happen on a dedicated uploader goroutine (the
// uplink's sole writer once the loop starts), so iteration k+1's collect
// overlaps the encode and send of sum k.
func (gm *groupMaster) run() {
	defer close(gm.done)
	upJobs := make(chan func() error, 1)
	upErr := make(chan error, 1)
	upDone := make(chan struct{})
	go func() {
		defer close(upDone)
		for job := range upJobs {
			if err := job(); err != nil {
				select {
				case upErr <- err:
				default:
				}
			}
		}
	}()
	defer func() { close(upJobs); <-upDone }()
	var plan *elastic.Plan
	for {
		env, err := gm.up.Recv()
		if err != nil {
			gm.fatal(fmt.Errorf("group %d uplink: %w", gm.g, err))
			return
		}
		switch env.Type {
		case transport.MsgShutdown:
			gm.shutdown(true)
			return
		case transport.MsgParams:
			if env.RootGen != gm.rootGen {
				// A frame from a root generation this group never adopted —
				// in-process that cannot happen, but the check is the same
				// one the restartable runner relies on.
				continue
			}
			select {
			case err := <-upErr:
				gm.fatal(fmt.Errorf("group %d upload: %w", gm.g, err))
				return
			default:
			}
			sum, epoch, err := gm.iteration(env.Iter, env.Vector, &plan)
			grad.PutBuffer(env.Vector) // broadcast and joined: back to the receive pool
			if err != nil {
				gm.fatal(err)
				return
			}
			gm.epochs = append(gm.epochs, epoch)
			// Echo the root's trace context and the group-level phase spans on
			// the uplink; ChunkGradient hoists both onto the final chunk.
			tmpl := transport.Envelope{Iter: env.Iter, Epoch: epoch, WorkerID: gm.g, RootGen: gm.rootGen, Trace: env.Trace, Spans: gm.uplinkSpans()}
			chunkLen, codec := gm.root.cfg.ChunkLen, gm.codec
			upJobs <- func() error {
				frames, err := transport.ChunkGradientQuant(tmpl, sum, chunkLen, codec)
				if err != nil {
					grad.PutBuffer(sum)
					return err
				}
				sendStart := time.Now()
				err = gm.up.SendBatch(frames)
				transport.ReleaseQuant(frames)
				grad.PutBuffer(sum)
				if err == nil {
					gm.noteUplink(time.Since(sendStart).Seconds())
				}
				return err
			}
		}
	}
}

// fatal reports the error to the root and tears the group down (closing the
// uplink so the root's reader notices). It runs on the run-loop goroutine,
// so the graceful shutdown frames cannot race the loop's own sends.
func (gm *groupMaster) fatal(err error) {
	select {
	case gm.root.err <- err:
	default:
	}
	gm.shutdown(true)
}

// shutdown stops the group's workers and the uplink. graceful sends each
// worker a MsgShutdown frame first — only the run-loop goroutine may do
// that, because it is the connections' single writer; Root.Close runs
// concurrently with the loop and must close the connections cold instead.
func (gm *groupMaster) shutdown(graceful bool) {
	gm.eng.Shutdown(graceful)
	_ = gm.up.Close()
}

// close tears the group down from outside the run loop (Root.Close): no
// shutdown frames — closing a connection concurrently with its writer is
// safe, writing to it is not.
func (gm *groupMaster) close() {
	gm.shutdown(false)
}

// waitDone blocks until the run loop exited.
func (gm *groupMaster) waitDone() { <-gm.done }

// groupState summarises the group's durable state for a root snapshot.
func (gm *groupMaster) groupState() checkpoint.GroupState { return gm.coreState() }

// stats snapshots the group's counters after the run completed.
func (gm *groupMaster) stats() GroupStats {
	return gm.coreStats(len(gm.root.plan.Groups[gm.g].Workers))
}
