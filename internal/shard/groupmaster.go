// The group side of the hierarchy: one coding group's master, an elastic
// BSP master scoped to that group. It admits the group's workers over TCP
// with the elastic worker protocol, keeps a group-local control plane (its
// own elastic.Controller, its own epoch counter), migrates only its own
// workers on drift or churn, decodes the group's gradient sum with the shared
// decode-plan cache and kernels, and streams that sum to the root as one
// coalesced chunked batch per iteration.
//
// Membership, generation fencing, migration delivery and the epoch-fenced
// collect are delegated to internal/roster — the same engine behind the
// flat runtime.ElasticMaster — so a fencing fix lands once and is verified
// against both runtimes by the shared conformance suite.
//
// Every group master is a GroupRunner (runner.go): NewRoot starts one for
// each group it hosts, recording into the root's journal, and StartGroup
// runs one out of process with its own. This file holds the runner's
// per-group pieces: the adoption handshake, the upload of a decoded sum, the
// durable group summary, and the controller and engine builders.
package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
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

// upload sends one decoded sum to the root: chunk and quantize it under the
// codec the root named at adoption, one batched write stamped with tmpl (the
// adopted root generation, the echoed trace context and phase spans), then
// release.
func (r *GroupRunner) upload(up *transport.Conn, tmpl transport.Envelope, sum []float64) error {
	defer grad.PutBuffer(sum)
	frames, err := transport.ChunkGradientQuant(tmpl, sum, r.cfg.ChunkLen, r.codec)
	if err != nil {
		return fmt.Errorf("%w: %v", errUplinkEncode, err)
	}
	sendStart := time.Now()
	err = up.SendBatch(frames)
	transport.ReleaseQuant(frames)
	if err == nil {
		// A sender cannot time its own in-flight upload: the duration rides
		// the next iteration's upload span.
		r.lastUpSec = time.Since(sendStart).Seconds()
	}
	return err
}

// uplinkSpans assembles the phase spans echoed on the group's uplink: the
// gather (the group's workers computing and uploading) reads as compute, the
// combine as encode — the same span family workers report, so one trace view
// renders both tiers — plus the PREVIOUS upload's send duration.
func (r *GroupRunner) uplinkSpans() []transport.PhaseSpan {
	spans := []transport.PhaseSpan{
		{Phase: obs.PhaseCompute, Seconds: r.loop.Gather},
		{Phase: obs.PhaseEncode, Seconds: r.loop.Combine},
	}
	if r.lastUpSec > 0 {
		spans = append(spans, transport.PhaseSpan{Phase: obs.PhaseUpload, Seconds: r.lastUpSec})
	}
	return spans
}

// adopt performs the group side of the adoption handshake on a freshly
// dialed root connection: it announces the group's live epoch and members,
// and applies the root's reply — the epoch floor the root recorded for this
// group (reconciled into the controller so post-adoption plans fence every
// pre-adoption upload) and the root's lease generation, which it returns. An
// ack for another group is ErrBadConfig.
func (r *GroupRunner) adopt(conn *transport.Conn, timeout time.Duration) (gen int, err error) {
	g, eng := r.cfg.Group, r.loop.Eng
	epoch := eng.Epoch()
	if epoch < -1 {
		epoch = -1
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	err = conn.Send(&transport.Envelope{
		Type:  transport.MsgAdopt,
		Adopt: &transport.Adoption{Group: g, Epoch: epoch, Members: eng.MemberIDs()},
	})
	if err != nil {
		return 0, fmt.Errorf("group %d adoption: %w", g, err)
	}
	ack, err := conn.Recv()
	if err != nil {
		return 0, fmt.Errorf("group %d adoption ack: %w", g, err)
	}
	if ack.Type != transport.MsgAdopt || ack.Adopt == nil || ack.Adopt.Group != g {
		return 0, fmt.Errorf("%w: group %d: bad adoption ack %v", ErrBadConfig, g, ack.Type)
	}
	r.codec = grad.Codec(ack.Codec) // the root's codec; Recv refused an undefined byte
	eng.RaiseEpochBase(ack.Adopt.Epoch + 1)
	eng.SetRootGen(ack.RootGen)
	return ack.RootGen, nil
}

// coreState summarises the group's durable state: its highest plan epoch,
// every member ID it admitted, and the live control-plane state (throughput
// estimates), so a resumed or promoted root re-plans from real history.
func (r *GroupRunner) coreState() checkpoint.GroupState {
	gs := checkpoint.GroupState{Group: r.cfg.Group, Epoch: r.loop.Eng.Epoch(), Ctrl: r.loop.Eng.ControllerState()}
	for _, ms := range gs.Ctrl.Members {
		gs.Members = append(gs.Members, ms.ID)
	}
	sort.Ints(gs.Members)
	return gs
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
