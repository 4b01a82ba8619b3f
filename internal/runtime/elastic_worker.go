package runtime

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/hetgc/hetgc/internal/dataplane"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/transport"
)

// ReconnectPolicy bounds a worker's dial attempts against a master that is
// not (yet) reachable — a root still starting up, or briefly gone during a
// failover. The zero value is exactly the historic behavior: one attempt,
// no redial.
type ReconnectPolicy struct {
	// MaxAttempts is the total number of dial attempts; 0 or 1 means a
	// single attempt (no redial).
	MaxAttempts int
	// Backoff is the wait after a failed attempt, doubling per retry.
	Backoff time.Duration
	// MaxBackoff caps the doubling; 0 caps it at 8× Backoff.
	MaxBackoff time.Duration
}

// attempts returns the effective total attempt count.
func (p ReconnectPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// wait returns the backoff before retry number n (1-based).
func (p ReconnectPolicy) wait(n int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 8 * p.Backoff
	}
	d := p.Backoff
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// ElasticWorkerConfig configures one elastic worker process.
type ElasticWorkerConfig struct {
	// Model computes the coded gradient through ml.CodedGradient: in one
	// pass when it is an ml.Coder, otherwise one Gradient per partition.
	Model ml.Model
	// PartitionData returns the dataset shard for a global partition index.
	// Shards are cached across migrations, so a reassignment only fetches
	// partitions the worker has not held before. Nil means the worker has no
	// local data at all: it fetches shards over the master's data plane
	// (MsgPartitionReq/MsgPartition against the same address it dialed) —
	// the multi-machine deployment mode, where only the root holds the
	// dataset.
	PartitionData func(partition int) (*ml.Dataset, error)
	// Delay, when non-nil, injects an artificial extra delay per iteration —
	// the fault-simulation hook. Both hooks are called once at the start of
	// every iteration the worker begins, and their sum is slept in one piece
	// once the coded gradient is formed. The sleep is interruptible: it ends
	// the moment a newer parameter broadcast arrives, because the master has
	// then closed the iteration and the worker abandons it (see
	// ElasticWorker.iterate).
	Delay func(iter int) time.Duration
	// DelayPerPartition, when non-nil, injects an artificial delay per
	// assigned partition per iteration — it emulates a slow machine whose
	// compute time scales with its load, so migrations that shed load
	// visibly speed the worker up. It is slept with Delay, for all the
	// assigned partitions at once. Both delays count as compute time in the
	// telemetry the worker reports, and they count in full — the declared
	// time, what the hooks returned — even when the sleep was cut short:
	// the emulated machine is as slow as it was declared to be, however
	// soon the master stopped waiting for it.
	DelayPerPartition func(iter int) time.Duration
	// DialTimeout bounds the initial connection (default 10s).
	DialTimeout time.Duration
	// ResumeID, when non-zero, asks the master to resume this member slot —
	// the reconnect handshake after a connection loss. Zero requests a fresh
	// membership.
	ResumeID int
	// Reconnect governs dial retries. The zero value preserves the historic
	// no-redial behavior: one attempt, fail fast.
	Reconnect ReconnectPolicy
}

// ElasticWorker is a connected elastic worker: it survives strategy
// migrations (MsgReassign) and reports per-iteration telemetry.
type ElasticWorker struct {
	cfg    ElasticWorkerConfig
	conn   *transport.Conn
	dp     *dataplane.Client // wire shard fetcher (nil with local PartitionData)
	id     int               // stable member ID assigned by the master
	codec  grad.Codec        // upload codec, named in the master's hello ack
	epoch  int
	assign *transport.Assignment
	parts  []*ml.Dataset
	cache  map[int]*ml.Dataset
	box    *mailbox // Run's receive queue

	// up carries each iteration's sends to its writer goroutine (the
	// connection's sole writer while Run is live), so iteration k+1's
	// compute and encode overlap upload k.
	up transport.Pipeline

	// Phase timing echoed as trace spans on each upload. lastFetch is the
	// wire-fetch time of the most recent migration, attributed to the next
	// upload (amortized: a fetch serves every following iteration).
	// lastUpload (Float64bits) is the PREVIOUS iteration's send duration —
	// a sender cannot know this upload's duration before sending it. It is
	// written by the upload pipeline's writer and read by iterate, hence atomic.
	lastFetch  float64
	lastUpload atomic.Uint64
}

// DialElasticWorker connects to a root's group master and performs the
// hello/ack handshake, retrying per cfg.Reconnect when the master is not
// reachable. The worker has no assignment until the master's first
// MsgReassign arrives (in Run). With a nil PartitionData the worker fetches
// shards over the master's data plane at the same address.
func DialElasticWorker(addr string, cfg ElasticWorkerConfig) (*ElasticWorker, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("%w: worker needs a model", ErrBadConfig)
	}
	var lastErr error
	for attempt := 1; attempt <= cfg.Reconnect.attempts(); attempt++ {
		if attempt > 1 {
			time.Sleep(cfg.Reconnect.wait(attempt - 1))
		}
		w, err := dialElasticOnce(addr, cfg)
		if err == nil {
			return w, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// dialElasticOnce performs one dial + handshake attempt.
func dialElasticOnce(addr string, cfg ElasticWorkerConfig) (*ElasticWorker, error) {
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := transport.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	helloID := transport.HelloNewWorker
	if cfg.ResumeID > 0 {
		helloID = cfg.ResumeID
	}
	if err := conn.Send(&transport.Envelope{Type: transport.MsgHello, WorkerID: helloID}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	ack, err := conn.Recv()
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	if ack.Type != transport.MsgHello || ack.WorkerID <= 0 {
		_ = conn.Close()
		return nil, fmt.Errorf("%w: expected hello ack, got %v", ErrBadConfig, ack.Type)
	}
	w := &ElasticWorker{
		cfg:   cfg,
		conn:  conn,
		id:    ack.WorkerID,
		codec: grad.Codec(ack.Codec), // Recv refused an undefined codec byte
		epoch: -1,
		cache: make(map[int]*ml.Dataset),
	}
	if w.cfg.PartitionData == nil {
		// No local data: shards come over the wire from the master's data
		// plane. The per-partition cache above makes a migration fetch only
		// the shards this worker never held.
		w.dp = dataplane.NewClient(addr, timeout)
		w.cfg.PartitionData = w.dp.Fetch
	}
	return w, nil
}

// Follow is the loop a worker process runs: it follows its root across
// crashes and failovers. Each cycle it dials the addresses addrs returns, in
// order, until one admits it, and trains there until the connection drops;
// the next cycle rejoins under the member ID that root gave it (cfg.ResumeID
// seeds the first), so a restarted or promoted root resumes the worker's
// slot. joined, when non-nil, sees the member ID of every admission. Cycles
// are 100 ms apart, so a dead cluster, or an addrs that names no root yet,
// does not spin. Follow returns nil once a root shuts the worker down
// (training finished) or stop closes; after maxCycles cycles (0: no bound)
// it returns the last error.
func Follow(cfg ElasticWorkerConfig, addrs func() []string, maxCycles int, joined func(id int), stop <-chan struct{}) error {
	var lastErr error
	for cycle := 0; maxCycles <= 0 || cycle < maxCycles; cycle++ {
		for _, addr := range addrs() {
			select {
			case <-stop:
				return nil
			default:
			}
			w, err := DialElasticWorker(addr, cfg)
			if err != nil {
				lastErr = err
				continue
			}
			cfg.ResumeID = w.ID()
			if joined != nil {
				joined(w.ID())
			}
			if lastErr = w.Run(); lastErr == nil {
				return nil // MsgShutdown: training finished
			}
			// Connection lost mid-run: the root died or fenced this worker.
			// The next cycle starts from the top, where addrs names the
			// successor.
			break
		}
		select {
		case <-stop:
			return nil
		case <-time.After(100 * time.Millisecond):
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: no address to dial in %d cycles", ErrBadConfig, maxCycles)
	}
	return lastErr
}

// ID returns the stable member ID the master assigned — pass it as ResumeID
// to resume this slot after a reconnect.
func (w *ElasticWorker) ID() int { return w.id }

// Epoch returns the epoch of the worker's current assignment (-1 before the
// first reassignment).
func (w *ElasticWorker) Epoch() int { return w.epoch }

// Close terminates the connection (used to script worker deaths in tests).
func (w *ElasticWorker) Close() error {
	if w.dp != nil {
		_ = w.dp.Close()
	}
	return w.conn.Close()
}

// Run processes reassignments and parameter broadcasts until shutdown or
// connection loss. A receive goroutine feeds the mailbox; the loop here takes
// frames out of it: reassignments in arrival order, and of the parameter
// broadcasts only the newest — one the master has already moved past is
// dropped uncomputed, and the iteration under way is abandoned when a newer
// one arrives (see iterate). For every iteration it completes, the worker
// computes and encodes the coded gradient of its current assignment, then
// hands the upload (gradient plus a telemetry report: compute seconds,
// partitions processed) to the upload pipeline — so the next iteration's
// compute and encode overlap the previous upload, one iteration deep.
func (w *ElasticWorker) Run() error {
	w.box = newMailbox()
	received := make(chan struct{})
	go func() {
		defer close(received)
		w.box.receive(w.conn)
	}()
	defer func() {
		_ = w.up.Close()
		w.Close() // fails the receive goroutine's Recv
		<-received
		w.box.drain()
	}()
	for {
		env, err := w.box.next()
		if err != nil {
			return err
		}
		switch env.Type {
		case transport.MsgShutdown:
			return nil
		case transport.MsgReassign:
			if err := w.applyAssignment(env); err != nil {
				return fmt.Errorf("worker %d migrate to epoch %d: %w", w.id, env.Epoch, err)
			}
		case transport.MsgParams:
			// Parameters for an epoch this worker has not (or no longer)
			// joined are a raced migration: skip, the master fences by epoch
			// anyway. Either way the received vector goes back to the pool
			// the transport took it from — iterate keeps no reference to it.
			var err error
			if w.assign != nil && env.Epoch == w.epoch {
				err = w.iterate(env)
			}
			grad.PutBuffer(env.Vector)
			if err != nil {
				// A failed upload means the root closed the connection, and
				// a root that gives up dismisses its workers first: a
				// shutdown in the rest of the stream wins over the error.
				if w.up.Close() != nil && w.box.dismissed() {
					return nil
				}
				return err
			}
		}
	}
}

// applyAssignment installs a new epoch's assignment, fetching only
// partitions not already cached.
func (w *ElasticWorker) applyAssignment(env *transport.Envelope) error {
	fetchStart := time.Now()
	fetched := false
	parts := make([]*ml.Dataset, len(env.Assign.Partitions))
	for i, p := range env.Assign.Partitions {
		d, ok := w.cache[p]
		if !ok {
			var err error
			d, err = w.cfg.PartitionData(p)
			if err != nil {
				return fmt.Errorf("partition %d: %w", p, err)
			}
			w.cache[p] = d
			fetched = true
		}
		parts[i] = d
	}
	if fetched {
		// Cache misses mean real shard-fetch work; echo it as the next
		// upload's fetch span (cache-hit-only reassignments stay span-free).
		w.lastFetch += time.Since(fetchStart).Seconds()
	}
	w.assign = env.Assign
	w.parts = parts
	w.epoch = env.Epoch
	return nil
}

// iterBufs are the pooled buffers one iteration holds. release hands back
// whichever it still holds, so every way out of an iteration — uploaded,
// abandoned, failed — returns them through the one path.
type iterBufs struct {
	coded grad.Gradient
	quant []byte
}

func (b *iterBufs) release() {
	grad.PutBuffer(b.coded)
	b.coded = nil
	grad.PutBytes(b.quant)
	b.quant = nil
}

// iterate computes, encodes and uploads one iteration's coded gradient and
// telemetry — unless a newer broadcast arrives first. The master has then
// closed this iteration, and the gradient would be rejected at its iteration
// or epoch fence: the iteration is abandoned, its buffers go back to the
// pools and only the telemetry is uploaded.
//
// The coded gradient is one ml.CodedGradient call, for every model: one pass
// for an ml.Coder, one Gradient per partition combined by grad.EncodeInto
// for any other. The mailbox is consulted after that call, throughout the
// injected delay and once before the upload is built — never during the
// call, so an iteration closed while it runs is found after it and reports
// every partition and the call's time, like one closed after it.
//
// What the abandoned iteration reports is a rate sample the controller can
// use as it uses any other: an injected delay cut short reports every
// partition and the declared time — the time up to the sleep plus the whole
// of what the hooks returned — not the time until the master moved on, which
// would make every superseded worker look exactly as fast as the cluster; a
// finished computation reports what it would have.
func (w *ElasticWorker) iterate(env *transport.Envelope) error {
	bufs := &iterBufs{}
	uploading := false
	defer func() {
		if !uploading {
			bufs.release()
		}
	}()
	tel := &transport.Envelope{
		Type:      transport.MsgTelemetry,
		Iter:      env.Iter,
		Epoch:     w.epoch,
		WorkerID:  w.id,
		RootGen:   env.RootGen,
		Telemetry: &transport.Telemetry{},
	}
	abandon := func(seconds float64) error {
		tel.Telemetry.Partitions, tel.Telemetry.ComputeSeconds = len(w.parts), seconds
		return w.up.Submit(func() error { return w.conn.Send(tel) })
	}
	// Artificial slowness counts as compute, and as declared, so telemetry
	// sees the machine the master sees.
	var delay, perPart time.Duration
	if w.cfg.Delay != nil {
		delay = w.cfg.Delay(env.Iter)
	}
	if w.cfg.DelayPerPartition != nil {
		perPart = w.cfg.DelayPerPartition(env.Iter)
	}

	computeStart := time.Now()
	bufs.coded = grad.GetBuffer(len(env.Vector))
	if err := ml.CodedGradient(w.cfg.Model, bufs.coded, env.Vector, w.parts, w.assign.RowCoeffs); err != nil {
		return fmt.Errorf("worker %d iter %d: %w", w.id, env.Iter, err)
	}
	gradSec := time.Since(computeStart).Seconds()
	extra := delay + time.Duration(len(w.parts))*perPart
	if extra > 0 {
		declared := (time.Since(computeStart) + extra).Seconds()
		if !w.box.sleep(extra) {
			return abandon(declared)
		}
	}
	compute := time.Since(computeStart).Seconds()
	if len(w.parts) > 0 && w.box.superseded() {
		return abandon(compute)
	}

	out := &transport.Envelope{
		Type:     transport.MsgGradient,
		Iter:     env.Iter,
		Epoch:    w.epoch,
		WorkerID: w.id,
		// Echo the broadcast's root generation: the gradient is only valid
		// against the params of the root that sent them, so a promoted root
		// can fence uploads computed under its deposed predecessor.
		RootGen: env.RootGen,
	}
	var encodeSec float64
	if w.codec != grad.CodecRaw {
		quantStart := time.Now()
		bufs.quant = grad.GetBytes(8 * len(bufs.coded))
		q, err := grad.AppendQuantized(bufs.quant, w.codec, bufs.coded)
		if err != nil {
			return fmt.Errorf("worker %d iter %d: %w", w.id, env.Iter, err)
		}
		bufs.quant = q
		encodeSec = time.Since(quantStart).Seconds()
		out.Codec, out.Quant, out.QuantLen = byte(w.codec), q, len(bufs.coded)
		grad.PutBuffer(bufs.coded) // the payload is the quantized bytes now
		bufs.coded = nil
	} else {
		out.Vector = bufs.coded
	}
	// Echo the broadcast's trace context and this worker's phase spans on the
	// upload, so the master can stitch them into its iteration trace. The
	// upload span is the PREVIOUS iteration's send (a sender cannot time its
	// own in-flight upload); the fetch span amortizes the last migration's
	// shard fetch onto the first upload after it.
	out.Trace = env.Trace
	spans := make([]transport.PhaseSpan, 0, 4)
	if w.lastFetch > 0 {
		spans = append(spans, transport.PhaseSpan{Phase: obs.PhaseFetch, Seconds: w.lastFetch})
		w.lastFetch = 0
	}
	spans = append(spans,
		transport.PhaseSpan{Phase: obs.PhaseCompute, Seconds: gradSec + extra.Seconds()},
		transport.PhaseSpan{Phase: obs.PhaseEncode, Seconds: encodeSec},
	)
	if prevUp := math.Float64frombits(w.lastUpload.Load()); prevUp > 0 {
		spans = append(spans, transport.PhaseSpan{Phase: obs.PhaseUpload, Seconds: prevUp})
	}
	out.Spans = spans
	tel.Telemetry.Partitions, tel.Telemetry.ComputeSeconds = len(w.parts), compute
	err := w.up.Submit(func() error {
		uploadStart := time.Now()
		err := w.conn.Send(out)
		bufs.release()
		if err != nil {
			return err
		}
		up := time.Since(uploadStart).Seconds()
		w.lastUpload.Store(math.Float64bits(up))
		tel.Telemetry.UploadSeconds = up
		return w.conn.Send(tel)
	})
	uploading = err == nil
	return err
}
