package testkit

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/transport"
)

// Behavior scripts one worker's conduct through a scenario. The zero value
// is an honest, fast worker.
type Behavior struct {
	// PerPart is the artificial per-partition compute delay emulating
	// machine speed (default 2ms).
	PerPart time.Duration
	// SlowAtIter, when > 0, switches the worker to SlowPerPart per
	// partition from that iteration on — the drift scenario's knob.
	SlowAtIter  int
	SlowPerPart time.Duration
	// KillAtIter, when > 0, closes the connection upon receiving that
	// iteration's parameter broadcast, before uploading — a mid-iteration
	// death the master must fence or retry around.
	KillAtIter int
	// RejoinAtIter, when > 0 (with KillAtIter), redials with the old member
	// ID once the surviving cluster reaches that iteration — the
	// rejoin-with-stale-connection path.
	RejoinAtIter int
	// PoisonAfterMigration makes the worker tag every upload with epoch 0
	// and a poisoned payload (1e12 per coordinate) once its assignment
	// epoch advances past 0 — the payload must never reach combine.
	PoisonAfterMigration bool
	// Faults, when non-nil, routes gradient uploads through a seeded
	// fault-injecting FaultConn.
	Faults *Rates
	// ReplayAfterRejoin makes the worker follow its root across crashes, as
	// the shipped follow loop does: it redials a lost connection under its
	// old member ID until stopped. After every rejoin it uploads one
	// gradient tagged with epoch 0 (1e9 per coordinate) before its honest
	// one — the pre-crash world a resumed root's epoch base must fence.
	ReplayAfterRejoin bool
}

// WorkerRecord is what a scripted worker observed, for scenario assertions.
type WorkerRecord struct {
	// ID is the member ID assigned at the first join; RejoinID the ID
	// assigned when the worker rejoined (0 if it never did). Identity
	// resumption holds when they are equal.
	ID, RejoinID int
	// Iters counts parameter broadcasts processed across all connections.
	Iters int
	// Schedule is the worker's fault schedule (nil without Faults).
	Schedule *Schedule
}

// DriveWorkers spawns one scripted worker per address slot (addrs[i] is the
// dial address for slot i, as Live.Addrs gives them: each group's address
// once per planned group member, consecutively). Behaviors missing from the
// scenario default to honest fast workers. progress tracks the highest
// iteration any worker has seen — the clock rejoin scripts wait on.
func DriveWorkers(sc *Scenario, addrs []string, fx *Fixture, wg *sync.WaitGroup, progress *atomic.Int64) []*WorkerRecord {
	recs := make([]*WorkerRecord, len(addrs))
	for i, addr := range addrs {
		rec := &WorkerRecord{}
		recs[i] = rec
		b := sc.Behaviors[i]
		if b.Faults != nil {
			rec.Schedule = NewSchedule(sc.Seed+int64(i), *b.Faults)
		}
		wg.Add(1)
		go func(addr string, b Behavior, rec *WorkerRecord) {
			defer wg.Done()
			runScripted(func() string { return addr }, b, fx, progress, rec, nil)
		}(addr, b, rec)
	}
	return recs
}

// bumpProgress advances the shared iteration clock monotonically.
func bumpProgress(progress *atomic.Int64, iter int) {
	v := int64(iter)
	for {
		cur := progress.Load()
		if v <= cur || progress.CompareAndSwap(cur, v) {
			return
		}
	}
}

// runScripted speaks the raw elastic worker protocol under the behavior
// script, across an initial session and (optionally) one rejoin session —
// or, with ReplayAfterRejoin, a rejoin after every lost connection until
// stop closes. Each session dials the address addr returns as it starts.
func runScripted(addr func() string, b Behavior, fx *Fixture, progress *atomic.Int64, rec *WorkerRecord, stop <-chan struct{}) {
	killed := false
	resumeID := 0
	for scriptedSession(addr(), b, fx, progress, rec, &killed, &resumeID) {
		if b.ReplayAfterRejoin {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		// A dead master stalls the clock, so the wait is bounded.
		if !WaitUntil(15*time.Second, func() bool { return progress.Load() >= int64(b.RejoinAtIter) }) {
			return // the cluster died before the rejoin point
		}
	}
}

// scriptedSession runs one connection's lifetime; it returns true when the
// script wants to rejoin (resumeID carries the identity to resume).
func scriptedSession(addr string, b Behavior, fx *Fixture, progress *atomic.Int64, rec *WorkerRecord, killed *bool, resumeID *int) bool {
	follow := b.ReplayAfterRejoin
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		return follow
	}
	defer conn.Close()
	helloID := transport.HelloNewWorker
	if *resumeID > 0 {
		helloID = *resumeID
	}
	if err := conn.Send(&transport.Envelope{Type: transport.MsgHello, WorkerID: helloID}); err != nil {
		return follow
	}
	ack, err := conn.Recv()
	if err != nil || ack.Type != transport.MsgHello || ack.WorkerID <= 0 {
		return follow
	}
	replay := follow && rec.ID != 0
	if rec.ID == 0 {
		rec.ID = ack.WorkerID
	} else {
		rec.RejoinID = ack.WorkerID
	}
	*resumeID = ack.WorkerID
	send := conn.Send
	if rec.Schedule != nil {
		send = NewFaultConn(conn, rec.Schedule).Send
	}

	var assign *transport.Assignment
	epoch := -1
	for {
		env, err := conn.Recv()
		if err != nil {
			return follow
		}
		switch env.Type {
		case transport.MsgShutdown:
			return false
		case transport.MsgReassign:
			assign, epoch = env.Assign, env.Epoch
		case transport.MsgParams:
			bumpProgress(progress, env.Iter)
			rec.Iters++
			if !*killed && b.KillAtIter > 0 && env.Iter >= b.KillAtIter {
				// Mid-iteration death: vanish between the broadcast and the
				// upload.
				*killed = true
				_ = conn.Close()
				return b.RejoinAtIter > 0
			}
			if assign == nil || env.Epoch != epoch {
				continue // raced migration; the master fences by epoch anyway
			}
			if replay {
				replay = false
				stale := &transport.Envelope{
					Type: transport.MsgGradient, Iter: env.Iter, Epoch: 0,
					WorkerID: ack.WorkerID, Vector: filled(len(env.Vector), 1e9),
				}
				if err := send(stale); err != nil {
					return follow
				}
			}
			if err := scriptedIterate(send, conn, b, fx, assign, epoch, env, ack); err != nil {
				return follow
			}
		}
	}
}

// scriptedIterate computes, encodes and uploads one iteration's coded
// gradient (honest or poisoned, in the codec the hello ack named, through the
// fault schedule when one is configured) and its honest telemetry.
func scriptedIterate(send func(*transport.Envelope) error, conn *transport.Conn, b Behavior, fx *Fixture, assign *transport.Assignment, epoch int, env *transport.Envelope, ack *transport.Envelope) error {
	id := ack.WorkerID
	start := time.Now()
	coded, err := fx.coded(assign, env.Vector)
	if err != nil {
		return err
	}
	perPart := b.PerPart
	if perPart <= 0 {
		perPart = 2 * time.Millisecond
	}
	if b.SlowAtIter > 0 && env.Iter >= b.SlowAtIter {
		perPart = b.SlowPerPart
	}
	if extra := time.Duration(len(assign.Partitions)) * perPart; extra > 0 {
		time.Sleep(extra)
	}
	compute := time.Since(start).Seconds()

	out := &transport.Envelope{
		Type:     transport.MsgGradient,
		Iter:     env.Iter,
		Epoch:    epoch,
		WorkerID: id,
		RootGen:  env.RootGen,
		Vector:   coded,
	}
	if b.PoisonAfterMigration && epoch > 0 {
		// Stale epoch + poison: 1e12 in every coordinate would blow up the
		// parameters if it ever reached combine.
		out.Epoch = 0 // deliberately stale
		out.Vector = filled(len(env.Vector), 1e12)
	}
	if codec := grad.Codec(ack.Codec); codec != grad.CodecRaw {
		q, err := grad.AppendQuantized(nil, codec, out.Vector)
		if err != nil {
			return err
		}
		out.Codec, out.Quant, out.QuantLen, out.Vector = byte(codec), q, len(out.Vector), nil
	}
	if err := send(out); err != nil {
		return err
	}
	return conn.Send(&transport.Envelope{
		Type:     transport.MsgTelemetry,
		Iter:     env.Iter,
		Epoch:    epoch,
		WorkerID: id,
		RootGen:  env.RootGen,
		Telemetry: &transport.Telemetry{
			ComputeSeconds: compute,
			Partitions:     len(assign.Partitions),
		},
	})
}

// filled returns n copies of v: a poisoned payload.
func filled(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
