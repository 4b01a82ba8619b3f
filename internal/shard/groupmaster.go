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
	"errors"
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
	"github.com/hetgc/hetgc/internal/rootcore"
	"github.com/hetgc/hetgc/internal/roster"
	"github.com/hetgc/hetgc/internal/transport"
)

// errUplinkEncode marks an upload that failed before it reached the wire (the
// codec refused the sum): unlike a dead uplink, re-adopting cannot help.
var errUplinkEncode = errors.New("shard: uplink encode failed")

// groupCore is the group BSP machinery shared by the in-process groupMaster
// and the restartable GroupRunner: one roster engine driven by the shared
// roster.Loop, plus the uplink that carries each decoded sum to the root.
type groupCore struct {
	roster.Loop
	g        int
	chunkLen int
	codec    grad.Codec // uplink codec negotiated at the last adoption

	// epochs is the plan epoch each served iteration decoded under (owned by
	// the serving goroutine; read after it exits).
	epochs []int
	// lastUpSec (Float64bits) is the previous uplink send's duration — the
	// in-process master sends from a dedicated uploader goroutine, hence
	// atomic.
	lastUpSec atomic.Uint64
}

// newGroupCore wires group g's engine to the shared iteration loop.
func newGroupCore(cfg *Config, g int, eng *roster.Engine) groupCore {
	return groupCore{
		Loop: roster.Loop{
			Eng: eng, IterTimeout: cfg.IterTimeout, MaxRetries: cfg.MaxRetries,
			Fail: fmt.Errorf("%w: group %d", ErrGroupFailed, g),
		},
		g: g, chunkLen: cfg.ChunkLen,
	}
}

// serve answers one root broadcast: it runs the group iteration on the
// broadcast parameters and returns the upload of the decoded sum — chunk and
// quantize, one batched write stamped with the adopted root generation,
// release — for the caller to run on the goroutine that owns the uplink's
// writes (the in-process master's uploader, so iteration k+1's collect
// overlaps the encode and send of sum k; the runner's serve loop itself).
func (gc *groupCore) serve(up *transport.Conn, env *transport.Envelope, gen int) (upload func() error, err error) {
	sum := grad.GetBuffer(len(env.Vector))
	err = gc.Iteration(nil, env.Iter, env.Vector, sum)
	grad.PutBuffer(env.Vector) // broadcast and joined: back to the receive pool
	if err != nil {
		grad.PutBuffer(sum)
		return nil, err
	}
	gc.epochs = append(gc.epochs, gc.Plan.Epoch)
	// Echo the root's trace context and the group-level phase spans on the
	// uplink; ChunkGradient hoists both onto the final chunk.
	tmpl := transport.Envelope{Iter: env.Iter, Epoch: gc.Plan.Epoch, WorkerID: gc.g, RootGen: gen, Trace: env.Trace, Spans: gc.uplinkSpans()}
	codec := gc.codec
	return func() error {
		frames, err := transport.ChunkGradientQuant(tmpl, sum, gc.chunkLen, codec)
		if err != nil {
			grad.PutBuffer(sum)
			return fmt.Errorf("%w: %v", errUplinkEncode, err)
		}
		sendStart := time.Now()
		err = up.SendBatch(frames)
		transport.ReleaseQuant(frames)
		grad.PutBuffer(sum)
		if err == nil {
			// A sender cannot time its own in-flight upload: the duration
			// rides the next iteration's upload span.
			gc.lastUpSec.Store(math.Float64bits(time.Since(sendStart).Seconds()))
		}
		return err
	}, nil
}

// uplinkSpans assembles the phase spans echoed on the group's uplink: the
// gather (the group's workers computing and uploading) reads as compute, the
// combine as encode — the same span family workers report, so one trace view
// renders both tiers — plus the PREVIOUS upload's send duration.
func (gc *groupCore) uplinkSpans() []transport.PhaseSpan {
	spans := []transport.PhaseSpan{
		{Phase: obs.PhaseCompute, Seconds: gc.Gather},
		{Phase: obs.PhaseEncode, Seconds: gc.Combine},
	}
	if prev := math.Float64frombits(gc.lastUpSec.Load()); prev > 0 {
		spans = append(spans, transport.PhaseSpan{Phase: obs.PhaseUpload, Seconds: prev})
	}
	return spans
}

// adopt performs the group side of the adoption handshake on a freshly
// dialed root connection: it announces the group's live epoch and members,
// and applies the root's reply — the epoch floor the root recorded for this
// group (reconciled into the controller so post-adoption plans fence every
// pre-adoption upload) and the root's lease generation. It returns the
// adopted generation and the iteration the root will serve next.
func (gc *groupCore) adopt(conn *transport.Conn, timeout time.Duration) (gen, nextIter int, err error) {
	members := gc.Eng.MemberIDs()
	epoch := gc.Eng.Epoch()
	if epoch < -1 {
		epoch = -1
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	advertised := grad.AdvertiseCodecs()
	err = conn.Send(&transport.Envelope{
		Type:   transport.MsgAdopt,
		Codecs: advertised,
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
	gc.Eng.RaiseEpochBase(ack.Adopt.Epoch + 1)
	gc.Eng.SetRootGen(ack.RootGen)
	return ack.RootGen, ack.Iter, nil
}

// coreState summarises the group's durable state: its highest plan epoch,
// every member ID it admitted, and the live control-plane state (throughput
// estimates), so a resumed or promoted root re-plans from real history.
func (gc *groupCore) coreState() checkpoint.GroupState {
	gs := checkpoint.GroupState{Group: gc.g, Epoch: gc.Eng.Epoch(), Ctrl: gc.Eng.ControllerState()}
	for _, ms := range gs.Ctrl.Members {
		gs.Members = append(gs.Members, ms.ID)
	}
	sort.Ints(gs.Members)
	return gs
}

// coreStats snapshots the group's counters after the serving loop exited.
func (gc *groupCore) coreStats(workers int) GroupStats {
	return GroupStats{
		Group:   gc.g,
		Workers: workers,
		Epochs:  append([]int(nil), gc.epochs...),
		Replans: gc.Eng.Events(),
		Stats:   gc.Stats,
		Joins:   gc.Eng.Joins(),
		Deaths:  gc.Eng.Deaths(),
	}
}

// buildGroupController constructs one group's control plane and, when st is
// a recovered checkpoint (the root's, or a runner's own journal), restores
// it. Recovery precedence: a snapshot-carried controller state — real
// throughput history — wins over the planned-throughput priors derived from
// member IDs alone. Every restored member starts dead (its connection died
// with the previous incarnation) and the epoch base is raised above
// everything the journal recorded. It returns the member IDs to reserve.
func buildGroupController(cfg *Config, grp *Group, g int, st *checkpoint.State) (*elastic.Controller, []int, error) {
	ctrl, err := elastic.NewController(elastic.Config{
		K: len(grp.Parts), S: cfg.S, Scheme: cfg.Scheme,
		Alpha: cfg.Alpha, DriftThreshold: cfg.DriftThreshold,
		MinObservations: cfg.MinObservations, CooldownIters: cfg.CooldownIters,
		InitialRate: cfg.InitialRate,
	}, rand.New(rand.NewSource(cfg.Seed+int64(g)+1)))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: group %d: %v", ErrBadConfig, g, err)
	}
	if st == nil {
		return ctrl, nil, nil
	}
	memberIDs := st.GroupMembers[g]
	var ctrlState *elastic.ControllerState
	if st.Snap != nil {
		for i := range st.Snap.Groups {
			if st.Snap.Groups[i].Group == g {
				ctrlState = st.Snap.Groups[i].Ctrl
			}
		}
	}
	var recovered []int
	switch {
	case ctrlState != nil && len(ctrlState.Members) > 0:
		if recovered, err = ctrl.RestoreDead(ctrlState, memberIDs); err != nil {
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
	if e, ok := st.GroupEpochs[g]; ok {
		ctrl.SetEpochBase(e + 1)
	}
	return ctrl, recovered, nil
}

// newGroupEngine builds the roster engine for one group on lis. Partition
// indices in assignments are global (the worker fetches data by global
// partition ID), so the engine translates through the group's partition
// slice and advertises the global K.
func newGroupEngine(cfg *Config, grp *Group, g int, ctrl *elastic.Controller, recovered []int, rec roster.Recorder, lis *transport.Listener) (*roster.Engine, error) {
	codec, _ := rootcore.ParseCodec(cfg.Wire, ErrBadConfig) // validated with the rest of the config
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
	ctrl, recovered, err := buildGroupController(&r.cfg, grp, g, r.resume)
	if err != nil {
		return nil, err
	}
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	eng, err := newGroupEngine(&r.cfg, grp, g, ctrl, recovered, r.core.Recorder(g), lis)
	if err != nil {
		return nil, err
	}
	up, err := transport.Dial(r.lis.Addr(), 10*time.Second)
	if err != nil {
		eng.Shutdown(false)
		return nil, err
	}
	gm := &groupMaster{
		groupCore: newGroupCore(&r.cfg, g, eng),
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

// waitForWorkers blocks until the group's planned worker count has joined.
func (gm *groupMaster) waitForWorkers(timeout time.Duration) error {
	want := len(gm.root.plan.Groups[gm.g].Workers)
	if err := gm.Eng.WaitForMembers(want, timeout); err != nil {
		return fmt.Errorf("%w: group %d: %v", ErrGroupFailed, gm.g, err)
	}
	return nil
}

// run is the group master's main loop: it serves root broadcasts until
// shutdown, one epoch-fenced group iteration per MsgParams, each answered
// with the group's decoded sum. The uploads run on a dedicated uploader
// goroutine (the uplink's sole writer once the loop starts).
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
			upload, err := gm.serve(gm.up, env, gm.rootGen)
			if err != nil {
				gm.fatal(err)
				return
			}
			upJobs <- upload
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
// concurrently with the loop and must close the connections cold instead
// (closing a connection concurrently with its writer is safe, writing to it
// is not).
func (gm *groupMaster) shutdown(graceful bool) {
	gm.Eng.Shutdown(graceful)
	_ = gm.up.Close()
}
