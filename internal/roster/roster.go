// Package roster is the membership engine behind every group master of the
// training root (shard.Root): each group runs the estimate → allocate →
// re-code loop over live TCP workers on its own Engine, and the Engine owns
// that loop's skeleton once:
//
//   - Accept loop: workers may connect for the whole lifetime of a run.
//   - Join/rejoin handshake: a hello with WorkerID -1 gets a fresh stable
//     member ID; a hello naming a dead member's ID resumes that identity
//     (and its warm throughput estimate in the controller) on a new
//     connection generation.
//   - Generation fencing: every connection carries the member's generation
//     at registration time; frames and death reports from a superseded
//     connection are fenced out, so a stale reader can never evict a
//     healthy rejoined member.
//   - Migration: Migrate replans via the elastic controller and delivers
//     (epoch, assignment) to every plan member, translating local partition
//     indices to global IDs when the engine manages one shard of a larger
//     key space.
//   - Collection: Collect runs one epoch-fenced gather — stale-epoch
//     uploads are rejected before they can reach decode, malformed frames
//     are counted and skipped without killing the connection, and deaths
//     that make the epoch undecodable abort the attempt so the caller can
//     migrate and retry.
//
// The engine is deliberately policy-free: what to do when an epoch stalls
// (retry budgets, error sentinels, result bookkeeping) stays with the
// root that embeds it — shard's group iteration, one per coding group.
package roster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/hetgc/hetgc/internal/dataplane"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/transport"
)

// Errors returned by the roster engine.
var (
	// ErrBadConfig marks invalid engine configurations.
	ErrBadConfig = errors.New("roster: invalid config")
	// ErrQuorum is returned by WaitForMembers when the quorum was not
	// reached before the timeout.
	ErrQuorum = errors.New("roster: quorum not reached")
	// ErrMigrationFailed is returned by Migrate when no stable membership
	// can be reassigned — planning became infeasible or every replan lost
	// another member mid-broadcast.
	ErrMigrationFailed = errors.New("roster: migration failed")
)

// Config parameterises an Engine.
type Config struct {
	// Controller is the elastic control plane the engine feeds: joins and
	// deaths update its membership, telemetry its estimates, Migrate its
	// plan. The engine serialises all controller access under its own lock.
	Controller *elastic.Controller
	// WriteTimeout bounds every per-member send, so a stalled (but not
	// disconnected) worker fails the send — and is handled as dead —
	// instead of blocking the control loop forever on a full socket buffer.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the hello/ack exchange (default 10s).
	HandshakeTimeout time.Duration
	// InboxSize is the capacity of the shared frame inbox (default 64).
	InboxSize int
	// Prior, when non-nil, supplies the controller prior (partitions/second)
	// for the n-th successful join of the run (rejoins included, matching
	// the join-order semantics of the sharded planner). Zero or a nil hook
	// lets the controller pick its own prior.
	Prior func(joinSeq int) float64
	// K and S are advertised in every assignment (the global partition
	// count and straggler budget the workers see).
	K, S int
	// PartitionMap translates the controller's local partition indices to
	// the global partition IDs carried in assignments; nil means the engine
	// manages the whole key space (identity mapping).
	PartitionMap []int
	// Recovered pre-registers member IDs restored from a checkpoint. They
	// start dead with no connection; a worker that dials in with one of
	// these IDs as its ResumeID resumes that identity through the ordinary
	// rejoin handshake. Fresh joins are numbered above every recovered ID.
	Recovered []int
	// Recorder, when non-nil, is notified after every durable membership
	// and plan event: a successful join (ack delivered), a death, a fully
	// delivered migration. It is invoked outside the engine lock and must
	// be safe for concurrent use (the checkpoint store's GroupRecorder is).
	Recorder Recorder
	// RootGen is the master's lease generation (the HA fencing token).
	// When positive, it is stamped on every parameter broadcast and migrate
	// reassign, workers echo it on their uploads, and Collect rejects
	// uploads carrying any other generation — so gradients encoded under a
	// deposed root can never decode into the new root's model. Zero
	// disables root-generation fencing (legacy single-root operation).
	RootGen int
	// PartitionBlob, when non-nil, enables the engine's data plane: a
	// connection whose FIRST frame is MsgPartitionReq never joins the
	// membership — it becomes a dedicated data-plane session answering
	// partition requests with PartitionBlob's encoded shards (see
	// internal/dataplane) until the peer hangs up. With a nil hook the
	// session protocol still works but every request gets the not-served
	// marker, so a misconfigured worker fails loudly instead of hanging.
	PartitionBlob func(p int) ([]byte, error)
	// PartitionChunkLen is the wire chunk size for partition blobs
	// (0 selects dataplane.DefaultChunkLen).
	PartitionChunkLen int
	// Codec is the run's gradient upload codec (a grad.Codec byte), named
	// in every hello ack: each worker uploads in it. 0 (CodecRaw) disables
	// quantization.
	Codec byte
	// Obs, when non-nil, receives live telemetry: member counts,
	// join/death/rejoin events, fencing rejections mirroring Stats
	// field-for-field, per-member throughput estimates and replan events.
	// Nil disables instrumentation at the cost of one branch per event.
	Obs *obs.Metrics
	// ObsGroup is the group label stamped on this engine's metrics and
	// events (the coding-group index; 0 in a root of one group, under a
	// sharded root).
	ObsGroup int
}

// Recorder receives the engine's durable events for write-ahead journaling.
type Recorder interface {
	// RecordJoin reports a successful join; rejoin marks a resumed identity.
	RecordJoin(id int, rejoin bool)
	// RecordDeath reports a member death.
	RecordDeath(id int)
	// RecordPlan reports a fully delivered migration.
	RecordPlan(iter, epoch int, members []int)
}

// member is one stable identity in the roster.
type member struct {
	id    int
	conn  *transport.Conn
	alive bool
	// gen counts reconnects: messages and death reports from a superseded
	// connection carry an older gen and are fenced out, so a stale reader
	// can never kill a healthy rejoined member.
	gen int
}

// msg is one inbox entry: a frame, a transport-level malformed marker, or a
// connection death, all tagged with the originating member and generation.
// nonFinite is the reader's verdict on a gradient's vector: it holds a NaN or
// an infinity.
type msg struct {
	memberID  int
	gen       int
	env       *transport.Envelope
	err       error
	malformed bool
	nonFinite bool
}

// Stats counts the fencing decisions of Collect. Callers accumulate one
// Stats across a run and surface the counters in their results.
type Stats struct {
	// StaleEpochRejected counts gradient uploads rejected because they were
	// encoded under a superseded plan epoch — fenced before decode.
	StaleEpochRejected int
	// StaleConnRejected counts frames rejected because they arrived from a
	// superseded connection generation — the member rejoined while they
	// were in flight.
	StaleConnRejected int
	// StragglersSkipped counts current-epoch uploads that arrived after
	// their iteration had already decoded (or from members outside the
	// plan).
	StragglersSkipped int
	// MalformedSkipped counts uploads rejected before decode (wrong length,
	// NaN/Inf, transport validation failures).
	MalformedSkipped int
	// FencedRejected counts uploads rejected by the root-generation fence —
	// frames tagged with (or encoded under) a deposed root's lease
	// generation.
	FencedRejected int
	// TelemetrySamples counts telemetry reports ingested by the controller.
	TelemetrySamples int
}

// Engine owns membership, fencing and migration for one group master.
type Engine struct {
	cfg Config
	lis *transport.Listener

	inbox chan msg

	mu      sync.Mutex
	members map[int]*member
	nextID  int
	joins   int
	deaths  int
	joinSeq int

	// Data-plane sessions (connections that never joined the membership).
	dataConns   map[*transport.Conn]struct{}
	partsServed int

	joined    chan struct{} // signalled on every successful join
	stop      chan struct{}
	readers   sync.WaitGroup
	accept    sync.WaitGroup // accept loop + in-flight handshakes
	closeOnce sync.Once

	// Double-buffered collect slabs: Collect hands out the two buffers
	// alternately, so the caller may keep using iteration k's coded uploads
	// (decode, combine) while iteration k+1's Collect fills the other slab —
	// the master half of the encode/decode pipeline overlap. Touched only by
	// the run-loop goroutine that calls Collect.
	collectBufs [2][]grad.Gradient
	collectFlip int

	// Stitched member child spans for the current iteration, accumulated by
	// Collect across migrate-and-retry attempts and drained by TakeContribs.
	// contribStart anchors arrival latency at the iteration's FIRST parameter
	// broadcast (a retry re-broadcast keeps the anchor — the member's real
	// wait includes the failed attempt). Touched only by the run-loop
	// goroutine, like collectBufs.
	contribs     []obs.MemberSpan
	contribIter  int
	contribStart time.Time

	// Per-iteration scratch, so a steady iteration allocates no masks or
	// connection lists: the broadcast's connections and their generations,
	// Collect's arrival mask and EpochViable's. Touched only by the run-loop
	// goroutine, like collectBufs.
	bcastConns []*transport.Conn
	bcastGens  []int
	arrived    []bool
	viable     []bool
}

// New validates the config and starts the accept loop on lis. The engine
// takes ownership of the listener; Shutdown closes it.
func New(cfg Config, lis *transport.Listener) (*Engine, error) {
	if cfg.Controller == nil {
		return nil, fmt.Errorf("%w: controller required", ErrBadConfig)
	}
	if lis == nil {
		return nil, fmt.Errorf("%w: listener required", ErrBadConfig)
	}
	if cfg.WriteTimeout <= 0 {
		return nil, fmt.Errorf("%w: write timeout required", ErrBadConfig)
	}
	if cfg.K <= 0 || cfg.S < 0 {
		return nil, fmt.Errorf("%w: k=%d s=%d", ErrBadConfig, cfg.K, cfg.S)
	}
	if !grad.Codec(cfg.Codec).Valid() {
		return nil, fmt.Errorf("%w: unknown gradient codec %d", ErrBadConfig, cfg.Codec)
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 64
	}
	e := &Engine{
		cfg:       cfg,
		lis:       lis,
		inbox:     make(chan msg, cfg.InboxSize),
		members:   make(map[int]*member),
		nextID:    1, // IDs start at 1 so a zero ResumeID means "new worker"
		dataConns: make(map[*transport.Conn]struct{}),
		joined:    make(chan struct{}, 1),
		stop:      make(chan struct{}),

		contribIter: -1,
	}
	for _, id := range cfg.Recovered {
		if id <= 0 {
			return nil, fmt.Errorf("%w: recovered member id %d", ErrBadConfig, id)
		}
		// Reserved, dead, connection-less: a ResumeID hello revives it; a
		// fresh join can never collide with it.
		e.members[id] = &member{id: id}
		if id >= e.nextID {
			e.nextID = id + 1
		}
	}
	e.accept.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the address workers should dial.
func (e *Engine) Addr() string { return e.lis.Addr() }

// ReadHello reads and validates the join handshake frame. Every failure —
// a stream that does not open a frame (an older build's peer), a truncated
// or malformed frame, a frame of the wrong type, or a hello carrying payloads
// a hello must not carry — is reported as an error wrapping
// transport.ErrMalformed, so handshake code (and its fuzzers) can assert on
// one typed error for the whole decode path.
func ReadHello(conn *transport.Conn) (*transport.Envelope, error) {
	env, err := conn.Recv()
	if err != nil {
		if errors.Is(err, transport.ErrMalformed) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: handshake: %v", transport.ErrMalformed, err)
	}
	if err := validateHello(env); err != nil {
		return nil, err
	}
	return env, nil
}

// validateHello enforces the handshake frame shape on top of the
// transport-level envelope invariants: a hello is exactly a type and a
// member ID (HelloNewWorker or a positive resume ID) — anything else on the
// frame means the peer is not speaking the join protocol.
func validateHello(env *transport.Envelope) error {
	if env.Type != transport.MsgHello {
		return fmt.Errorf("%w: handshake expected hello, got %v", transport.ErrMalformed, env.Type)
	}
	if env.WorkerID < transport.HelloNewWorker || env.WorkerID == 0 {
		return fmt.Errorf("%w: hello with member id %d", transport.ErrMalformed, env.WorkerID)
	}
	if env.Iter != 0 || env.Epoch != 0 || env.Chunks != 0 {
		return fmt.Errorf("%w: hello with iter=%d epoch=%d chunks=%d", transport.ErrMalformed, env.Iter, env.Epoch, env.Chunks)
	}
	return nil
}

// acceptLoop admits workers for the lifetime of the run.
func (e *Engine) acceptLoop() {
	defer e.accept.Done()
	for {
		conn, err := e.lis.Accept()
		if err != nil {
			return // listener closed: run over
		}
		e.accept.Add(1)
		go func() {
			defer e.accept.Done()
			e.handshake(conn)
		}()
	}
}

// handshake reads the first frame and routes the connection: a hello enters
// the membership handshake (fresh join or rejoin, registered with the control
// plane); a partition request makes this a data-plane session for its whole
// lifetime. The registration and the hello ack happen under the roster lock,
// serialising the ack with Shutdown's sweep — the connection never has two
// concurrent writers.
func (e *Engine) handshake(conn *transport.Conn) {
	_ = conn.SetDeadline(time.Now().Add(e.cfg.HandshakeTimeout))
	hello, err := conn.Recv()
	if err != nil {
		_ = conn.Close()
		return
	}
	if hello.Type == transport.MsgPartitionReq {
		e.serveData(conn, hello)
		return
	}
	if err := validateHello(hello); err != nil {
		_ = conn.Close()
		return
	}
	e.mu.Lock()
	id, gen := 0, 0
	rejoin := false
	if prev, ok := e.members[hello.WorkerID]; ok && !prev.alive {
		// Rejoin: resume the dead member's identity (and its warm throughput
		// estimate in the controller) on a new connection generation. Close
		// the superseded connection so its readLoop unblocks (its death
		// report is fenced by the old gen) and the fd is not leaked. A
		// checkpoint-recovered member has no superseded connection: the old
		// one died with the crashed master.
		id = hello.WorkerID
		rejoin = true
		if prev.conn != nil {
			_ = prev.conn.Close()
		}
		prev.conn = conn
		prev.alive = true
		prev.gen++
		gen = prev.gen
	} else {
		id = e.nextID
		e.nextID++
		e.members[id] = &member{id: id, conn: conn, alive: true}
	}
	// Ack the hello with the assigned member ID so the worker can resume
	// this slot after a reconnect, and the run's upload codec. Join
	// bookkeeping — the controller registration, the join counter, the
	// Prior slot — happens only after the ack lands: a peer that dies
	// mid-handshake was never a member, so it must not count as a join, a
	// death, or burn a planned-throughput prior.
	ack := &transport.Envelope{Type: transport.MsgHello, WorkerID: id, Codec: e.cfg.Codec}
	if err := conn.Send(ack); err != nil {
		e.members[id].alive = false
		e.mu.Unlock()
		_ = conn.Close()
		return
	}
	prior := 0.0
	if e.cfg.Prior != nil {
		prior = e.cfg.Prior(e.joinSeq)
	}
	e.joinSeq++
	e.cfg.Controller.AddMember(id, prior)
	e.joins++
	alive := e.cfg.Controller.AliveCount()
	e.mu.Unlock()
	e.cfg.Obs.OnJoin(e.cfg.ObsGroup, id, rejoin, alive, 0)
	if e.cfg.Recorder != nil {
		e.cfg.Recorder.RecordJoin(id, rejoin)
	}
	_ = conn.SetDeadline(time.Time{})

	select {
	case e.joined <- struct{}{}:
	default:
	}

	e.readers.Add(1)
	go e.readLoop(id, gen, conn)
}

// serveData runs a data-plane session: the connection opened with a
// partition request (already in hand as first) answers requests until the
// peer hangs up or Shutdown closes the conn. It runs inside the handshake
// goroutine, so Shutdown's accept.Wait also waits for data sessions — which
// is why Shutdown closes the tracked conns before waiting.
func (e *Engine) serveData(conn *transport.Conn, first *transport.Envelope) {
	_ = conn.SetDeadline(time.Time{})
	e.mu.Lock()
	e.dataConns[conn] = struct{}{}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.dataConns, conn)
		e.mu.Unlock()
		_ = conn.Close()
	}()
	blob := e.cfg.PartitionBlob
	if blob == nil {
		blob = func(p int) ([]byte, error) {
			return nil, fmt.Errorf("%w: engine has no partition source", dataplane.ErrNotServed)
		}
	}
	counted := func(p int) ([]byte, error) {
		b, err := blob(p)
		if err == nil {
			e.mu.Lock()
			e.partsServed++
			e.mu.Unlock()
		}
		return b, err
	}
	if err := dataplane.Answer(conn, first, counted, e.cfg.PartitionChunkLen); err != nil {
		return
	}
	_ = dataplane.Serve(conn, counted, e.cfg.PartitionChunkLen)
}

// PartitionsServed returns the number of partition blobs delivered over the
// engine's data plane (not-served refusals excluded).
func (e *Engine) PartitionsServed() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.partsServed
}

// readLoop feeds one connection generation's frames into the shared inbox.
// It checks a gradient for NaN and infinities here, where the read has just
// left its bytes in this core's cache and the readers run side by side,
// rather than on the one goroutine that collects every upload.
func (e *Engine) readLoop(id, gen int, conn *transport.Conn) {
	defer e.readers.Done()
	for {
		env, err := conn.Recv()
		if err != nil {
			if errors.Is(err, transport.ErrMalformed) {
				select {
				case e.inbox <- msg{memberID: id, gen: gen, malformed: true}:
				case <-e.stop:
					return
				}
				continue
			}
			select {
			case e.inbox <- msg{memberID: id, gen: gen, err: err}:
			case <-e.stop:
			}
			return
		}
		switch env.Type {
		case transport.MsgGradient, transport.MsgTelemetry:
			in := msg{memberID: id, gen: gen, env: env,
				nonFinite: env.Type == transport.MsgGradient && grad.InfOrNaN(env.Vector)}
			select {
			case e.inbox <- in:
			case <-e.stop:
				return
			}
		}
	}
}

// sendTo writes one envelope under the configured write deadline.
func (e *Engine) sendTo(conn *transport.Conn, env *transport.Envelope) error {
	_ = conn.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
	err := conn.Send(env)
	_ = conn.SetWriteDeadline(time.Time{})
	return err
}

// staleGen reports whether gen is a superseded connection generation for
// the member — the frame or report carrying it predates a rejoin.
func (e *Engine) staleGen(id, gen int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.members[id]
	return !ok || m.gen != gen
}

// noteDeath marks a member dead in the roster and the control plane — but
// only if the report refers to the member's current connection generation;
// errors from a superseded connection are ignored (the member rejoined).
func (e *Engine) noteDeath(id, gen int) {
	e.mu.Lock()
	died := false
	alive := 0
	if m, ok := e.members[id]; ok && m.alive && m.gen == gen {
		m.alive = false
		e.deaths++
		e.cfg.Controller.RemoveMember(id)
		alive = e.cfg.Controller.AliveCount()
		died = true
	}
	e.mu.Unlock()
	if !died {
		return
	}
	e.cfg.Obs.OnDeath(e.cfg.ObsGroup, id, alive, 0)
	if e.cfg.Recorder != nil {
		e.cfg.Recorder.RecordDeath(id)
	}
}

// AliveCount returns the number of members currently alive in the control
// plane.
func (e *Engine) AliveCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cfg.Controller.AliveCount()
}

// Joins returns the number of successful joins (rejoins included).
func (e *Engine) Joins() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.joins
}

// Deaths returns the number of member deaths observed.
func (e *Engine) Deaths() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.deaths
}

// Events returns the controller's replan history.
func (e *Engine) Events() []elastic.ReplanEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cfg.Controller.Events()
}

// Epoch returns the controller's current plan epoch (-1 before any plan).
// Epochs are monotonic, so this is also the highest epoch the engine ever
// created — the fencing base a checkpoint must carry.
func (e *Engine) Epoch() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cfg.Controller.Epoch()
}

// ControllerState captures the control plane for a checkpoint snapshot,
// serialised against the engine's own controller access (handshakes and
// collects mutate the controller under the same lock).
func (e *Engine) ControllerState() *elastic.ControllerState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cfg.Controller.State()
}

// WaitForMembers blocks until min members are alive, the timeout expires or
// the engine shuts down.
func (e *Engine) WaitForMembers(min int, timeout time.Duration) error {
	deadline := time.After(timeout)
	for {
		n := e.AliveCount()
		if n >= min {
			return nil
		}
		select {
		case <-e.joined:
		case <-deadline:
			return fmt.Errorf("%w: %d of %d members joined before timeout", ErrQuorum, n, min)
		case <-e.stop:
			return fmt.Errorf("%w: engine shut down with %d of %d members", ErrQuorum, n, min)
		}
	}
}

// ShouldReplan asks the controller whether to migrate at this iteration
// boundary; the gauge and the decision share one memoised DriftGain.
func (e *Engine) ShouldReplan(iter int) (bool, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.Obs != nil {
		e.cfg.Obs.OnDrift(e.cfg.Controller.DriftGain())
	}
	return e.cfg.Controller.ShouldReplan(iter)
}

// Migrate builds the next plan and delivers (epoch, assignment) to every
// member of it, translating partition indices through PartitionMap. Members
// whose reassign send fails are marked dead; Migrate replans until a full
// delivery succeeds or planning becomes infeasible.
func (e *Engine) Migrate(iter int, reason string) (*elastic.Plan, error) {
	for attempt := 0; ; attempt++ {
		e.mu.Lock()
		total := len(e.members)
		var plan *elastic.Plan
		var err error
		if attempt <= total+1 {
			plan, err = e.cfg.Controller.Replan(iter, reason)
		}
		e.mu.Unlock()
		if attempt > total+1 {
			return nil, fmt.Errorf("%w: no stable membership after %d attempts", ErrMigrationFailed, attempt)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMigrationFailed, err)
		}
		alloc := plan.Strategy.Allocation()
		failed := false
		for slot, id := range plan.Members {
			e.mu.Lock()
			m := e.members[id]
			conn, gen := m.conn, m.gen
			e.mu.Unlock()
			row := plan.Strategy.Row(slot)
			local := alloc.Parts[slot]
			parts := make([]int, len(local))
			coeffs := make([]float64, len(local))
			for i, p := range local {
				parts[i] = p
				if e.cfg.PartitionMap != nil {
					parts[i] = e.cfg.PartitionMap[p] // local → global partition ID
				}
				coeffs[i] = row[p]
			}
			env := &transport.Envelope{
				Type:    transport.MsgReassign,
				Epoch:   plan.Epoch,
				RootGen: e.cfg.RootGen,
				Assign: &transport.Assignment{
					WorkerID:   slot,
					Partitions: parts,
					RowCoeffs:  coeffs,
					K:          e.cfg.K,
					S:          e.cfg.S,
				},
			}
			if err := e.sendTo(conn, env); err != nil {
				e.noteDeath(id, gen)
				failed = true
			}
		}
		if !failed {
			// Journal the migration only after full delivery: an undelivered
			// plan is retried under a fresh epoch and must not become the
			// recovered fencing base.
			if e.cfg.Recorder != nil {
				e.cfg.Recorder.RecordPlan(iter, plan.Epoch, plan.Members)
			}
			e.cfg.Obs.OnReplan(reason, iter, plan.Epoch, len(plan.Members))
			return plan, nil
		}
		reason = "churn"
	}
}

// BroadcastParams sends one iteration's parameters, tagged with the plan
// epoch, the root generation and the iteration's wire trace context, to
// every live plan member; members whose send fails are marked dead. The
// frame's header is encoded once and all members are written it and the
// vector concurrently (transport.Broadcast), so a member whose socket is
// full delays nobody behind it in plan order; the writes are joined before
// returning — params may change again once BroadcastParams is back, and a
// stalled member has been given its full WriteTimeout. The first broadcast
// of an iteration also resets the stitched-span accumulator and anchors the
// contribution-latency clock (a retry re-broadcast of the same iteration
// keeps both: the member's real wait spans the failed attempt too).
func (e *Engine) BroadcastParams(plan *elastic.Plan, iter int, params []float64) {
	if iter != e.contribIter {
		e.contribIter = iter
		e.contribs = e.contribs[:0]
		e.contribStart = time.Now()
	}
	conns := resize(&e.bcastConns, len(plan.Members))
	gens := resize(&e.bcastGens, len(plan.Members))
	e.mu.Lock()
	for slot, id := range plan.Members {
		if m := e.members[id]; m.alive {
			conns[slot], gens[slot] = m.conn, m.gen
		}
	}
	e.mu.Unlock()
	errs := transport.Broadcast(conns, &transport.Envelope{
		Type: transport.MsgParams, Iter: iter, Epoch: plan.Epoch, RootGen: e.cfg.RootGen,
		Trace: e.traceID(plan, iter), Vector: params,
	}, e.cfg.WriteTimeout)
	// Deaths are noted here, in plan order, not from the send goroutines:
	// the journal and the controller see them in a reproducible sequence.
	for slot, err := range errs {
		if err != nil {
			e.noteDeath(plan.Members[slot], gens[slot])
		}
	}
}

// obsSpans copies wire phase spans into trace spans.
func obsSpans(ws []transport.PhaseSpan) []obs.Span {
	if len(ws) == 0 {
		return nil
	}
	out := make([]obs.Span, len(ws))
	for i, sp := range ws {
		out[i] = obs.Span{Phase: sp.Phase, Seconds: sp.Seconds}
	}
	return out
}

// arrival is the contribution latency clock: seconds since the iteration's
// first parameter broadcast (zero when Collect ran without one, e.g. under
// a test harness that drives the inbox directly).
func (e *Engine) arrival() float64 {
	if e.contribStart.IsZero() {
		return 0
	}
	return time.Since(e.contribStart).Seconds()
}

// noteContribution records one full stitched member child span: the arrival
// latency the engine observed plus whatever phase spans the member echoed
// on its upload (none for peers from before trace propagation).
func (e *Engine) noteContribution(id int, spans []transport.PhaseSpan) {
	e.contribs = append(e.contribs, obs.MemberSpan{
		Member:  id,
		Group:   e.cfg.ObsGroup,
		Arrival: e.arrival(),
		Spans:   obsSpans(spans),
	})
}

// noteErased records a partial member child span for a contribution that was
// erased — fenced, malformed, skipped, or lost to a death — labeled with the
// erasure reason and carrying whatever spans the engine learned before the
// erasure.
func (e *Engine) noteErased(id int, reason string, spans []transport.PhaseSpan) {
	e.contribs = append(e.contribs, obs.MemberSpan{
		Member:  id,
		Group:   e.cfg.ObsGroup,
		Arrival: e.arrival(),
		Spans:   obsSpans(spans),
		Partial: true,
		Reason:  reason,
	})
}

// noteStragglers records, at the moment an iteration decodes, a partial
// straggler span for every live plan member with work whose upload the
// decode did not wait for — the erasures the code absorbed. The simulators
// record the same span for a member that finishes after the decode point, so
// a live trace and a simulated one count stragglers alike; and the trace no
// longer depends on the late upload turning up, which a worker that abandons
// a closed iteration never sends. (Stats.StragglersSkipped and the rejected
// counter still count late uploads received, nothing else.)
func (e *Engine) noteStragglers(plan *elastic.Plan, arrived []bool) {
	loads := plan.Strategy.Allocation().Loads
	e.mu.Lock()
	defer e.mu.Unlock()
	for slot, id := range plan.Members {
		if m := e.members[id]; !arrived[slot] && loads[slot] > 0 && m != nil && m.alive {
			e.noteErased(id, obs.RStraggler, nil)
		}
	}
}

// TakeContribs drains the stitched member child spans accumulated for iter
// (nil when the engine never saw that iteration). The master calls it once
// after its collect-and-retry loop and attaches the result to the iteration
// trace.
func (e *Engine) TakeContribs(iter int) []obs.MemberSpan {
	if iter != e.contribIter || len(e.contribs) == 0 {
		return nil
	}
	out := make([]obs.MemberSpan, len(e.contribs))
	copy(out, e.contribs)
	e.contribs = e.contribs[:0]
	return out
}

// traceID is the wire trace context of one iteration under plan: stamped on
// the broadcast, echoed on every upload, recorded on the iteration's trace.
func (e *Engine) traceID(plan *elastic.Plan, iter int) uint64 {
	return obs.TraceID(uint64(e.cfg.RootGen), plan.Epoch, iter)
}

// EpochViable reports whether the plan can still decode if every live plan
// member eventually uploads (arrived marks slots already collected). Like
// Collect, it is the run loop's to call.
func (e *Engine) EpochViable(plan *elastic.Plan, arrived []bool) bool {
	mask := resize(&e.viable, len(plan.Members))
	e.mu.Lock()
	for slot, id := range plan.Members {
		m, ok := e.members[id]
		mask[slot] = arrived[slot] || (ok && m.alive)
	}
	e.mu.Unlock()
	return plan.Strategy.CanDecode(mask)
}

// Collect runs one epoch-fenced gather for an iteration: it consumes inbox
// frames — ingesting telemetry, fencing stale-epoch and malformed uploads,
// noting deaths — until the strategy decodes (ok=true, with the decode
// coefficients and the coded uploads by slot), the timeout expires, deaths
// make the epoch unviable, or the engine shuts down (ok=false either way:
// the caller migrates and retries, or gives up). Fencing decisions are
// accumulated into st. The coded uploads are pooled vectors, valid until the
// Collect after next; a caller done with them sooner says so with Release.
func (e *Engine) Collect(plan *elastic.Plan, iter, dim int, timeout time.Duration, st *Stats) (coeffs []float64, coded []grad.Gradient, ok bool) {
	m := plan.Strategy.M()
	coded = e.collectSlab(m)
	arrived := resize(&e.arrived, m)
	if iter != e.contribIter {
		// The caller skipped BroadcastParams (a test harness driving the
		// inbox directly): anchor the stitch accumulator here instead.
		e.contribIter = iter
		e.contribs = e.contribs[:0]
		e.contribStart = time.Now()
	}
	if !e.EpochViable(plan, arrived) {
		return nil, nil, false
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case in := <-e.inbox:
			// Generation fence: anything from a superseded connection —
			// a frame already queued when its member rejoined, a malformed
			// marker, a late death report — must not impersonate the live
			// connection. (Death reports are gen-fenced inside noteDeath
			// too; frames have no other fence.)
			if e.staleGen(in.memberID, in.gen) {
				if in.env != nil {
					st.StaleConnRejected++
					e.cfg.Obs.OnReject(obs.RStaleConn)
					grad.PutBuffer(in.env.Vector)
				}
				continue
			}
			if in.malformed {
				st.MalformedSkipped++
				e.cfg.Obs.OnReject(obs.RMalformed)
				e.noteErased(in.memberID, obs.RMalformed, nil)
				continue
			}
			if in.err != nil {
				// A plan member dying before its upload landed leaves an
				// explicitly-labeled partial child span in the trace.
				if slot := plan.SlotOf(in.memberID); slot >= 0 && !arrived[slot] {
					e.noteErased(in.memberID, obs.RDead, nil)
				}
				e.noteDeath(in.memberID, in.gen)
				if !e.EpochViable(plan, arrived) {
					return nil, nil, false
				}
				continue
			}
			env := in.env
			switch env.Type {
			case transport.MsgTelemetry:
				if env.Telemetry != nil && env.Telemetry.Partitions > 0 && env.Telemetry.ComputeSeconds > 0 {
					e.mu.Lock()
					err := e.cfg.Controller.Observe(in.memberID, env.Telemetry.Partitions, env.Telemetry.ComputeSeconds)
					rate := 0.0
					if err == nil && e.cfg.Obs != nil {
						rate, _ = e.cfg.Controller.Rate(in.memberID)
					}
					e.mu.Unlock()
					if err == nil {
						st.TelemetrySamples++
						e.cfg.Obs.OnEstimate(e.cfg.ObsGroup, in.memberID, rate)
					}
				}
			case transport.MsgGradient:
				slot, admitted := e.admit(plan, iter, dim, in, st)
				if !admitted {
					grad.PutBuffer(env.Vector)
					continue
				}
				if arrived[slot] {
					grad.PutBuffer(coded[slot]) // a duplicate upload replaces the first
				} else {
					e.noteContribution(in.memberID, env.Spans)
				}
				coded[slot] = env.Vector
				arrived[slot] = true
				if cs, err := plan.Strategy.Decode(arrived); err == nil {
					e.noteStragglers(plan, arrived)
					return cs, coded, true
				}
			}
		case <-deadline.C:
			return nil, nil, false
		case <-e.stop:
			return nil, nil, false // shut down: no upload can arrive
		}
	}
}

// admit runs one gradient upload through Collect's fences, counting and
// stitching every rejection, and returns the plan slot of an upload that
// passed them all.
func (e *Engine) admit(plan *elastic.Plan, iter, dim int, in msg, st *Stats) (slot int, ok bool) {
	memberID, env := in.memberID, in.env
	// Root-generation fence: an upload tagged with a deposed root's lease
	// generation was encoded against parameters that are no longer this
	// run's truth — reject it before any other consideration.
	if e.cfg.RootGen > 0 && env.RootGen != e.cfg.RootGen {
		st.FencedRejected++
		e.cfg.Obs.OnReject(obs.RFenced)
		e.noteErased(memberID, obs.RFenced, env.Spans)
		return 0, false
	}
	// Epoch fence: uploads encoded under a superseded plan are rejected
	// before they can reach decode.
	if env.Epoch != plan.Epoch {
		st.StaleEpochRejected++
		e.cfg.Obs.OnReject(obs.RStaleEpoch)
		e.noteErased(memberID, obs.RStaleEpoch, env.Spans)
		return 0, false
	}
	// Shape fence before the iteration fence: a mis-sized or non-finite
	// upload (readLoop's verdict) is malformed no matter which iteration it
	// straggled in from. (The two pre-roster runtimes raced here — a
	// truncated frame that arrived after its iteration had decoded was
	// miscounted as a mere straggler.)
	if len(env.Vector) != dim || in.nonFinite {
		st.MalformedSkipped++
		e.cfg.Obs.OnReject(obs.RMalformed)
		e.noteErased(memberID, obs.RMalformed, env.Spans)
		return 0, false
	}
	if env.Iter != iter {
		// A late upload for an OLDER iteration: counted, but it is not this
		// iteration's child span, so no stitch record.
		st.StragglersSkipped++
		e.cfg.Obs.OnReject(obs.RStraggler)
		return 0, false
	}
	slot = plan.SlotOf(memberID)
	if slot < 0 {
		st.StragglersSkipped++
		e.cfg.Obs.OnReject(obs.RStraggler)
		e.noteErased(memberID, obs.RStraggler, env.Spans)
		return 0, false
	}
	return slot, true
}

// Release hands a Collect result's uploads back to the gradient pool as soon
// as the caller has combined them. It is optional — collectSlab recycles
// whatever a caller left in a slab two Collects later — and it is what keeps
// a second iteration's worth of dim-sized vectors from staying live (in the
// traced flat-raw bench, peak heap 81.7 MB with it against 86.8 MB without).
func (e *Engine) Release(coded []grad.Gradient) {
	for i := range coded {
		grad.PutBuffer(coded[i])
		coded[i] = nil
	}
}

// resize returns *buf cut to n zeroed elements, growing it only when it is
// too short.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// collectSlab returns the next of the two alternating collect buffers,
// resized to m slots and cleared. The slab returned two Collect calls ago is
// recycled — by then the caller has decoded and discarded it — and any
// uploads it still holds (a Collect that did not decode, a caller that does
// not Release) go back to the gradient pool the transport received them into.
func (e *Engine) collectSlab(m int) []grad.Gradient {
	e.collectFlip ^= 1
	e.Release(e.collectBufs[e.collectFlip])
	return resize(&e.collectBufs[e.collectFlip], m)
}

// Shutdown stops the engine: the listener, every member connection and the
// reader goroutines. With graceful set, live members are sent a best-effort
// MsgShutdown frame first — callers may only do that from the goroutine
// that owns the member connections' writes (or after that goroutine
// exited); a concurrent teardown must close cold. Safe to call multiple
// times; later calls block until the first completes.
func (e *Engine) Shutdown(graceful bool) {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		if graceful {
			for _, m := range e.members {
				if m.alive && m.conn != nil {
					// Best-effort shutdown with a short write deadline: a
					// stalled worker must not hang Shutdown.
					_ = m.conn.SetWriteDeadline(time.Now().Add(time.Second))
					_ = m.conn.Send(&transport.Envelope{Type: transport.MsgShutdown})
				}
			}
		}
		for _, m := range e.members {
			if m.conn != nil {
				_ = m.conn.Close()
			}
		}
		e.mu.Unlock()
		_ = e.lis.Close()
		// Data-plane sessions run inside handshake goroutines; close their
		// conns so accept.Wait below cannot deadlock on a live session.
		e.mu.Lock()
		for conn := range e.dataConns {
			_ = conn.Close()
		}
		e.mu.Unlock()
		e.accept.Wait()
		// Close conns registered by handshakes that raced the sweep above,
		// so every reader goroutine unblocks. (Checkpoint-recovered members
		// that never rejoined have no connection at all.)
		e.mu.Lock()
		for _, m := range e.members {
			if m.conn != nil {
				_ = m.conn.Close()
			}
		}
		e.mu.Unlock()
		close(e.stop)
		done := make(chan struct{})
		go func() {
			e.readers.Wait()
			close(done)
		}()
		for {
			select {
			case <-e.inbox:
			case <-done:
				return
			}
		}
	})
}
