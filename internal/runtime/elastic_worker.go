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
	// Model computes partial gradients.
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
	// the fault-simulation hook.
	Delay func(iter int) time.Duration
	// DelayPerPartition, when non-nil, injects an artificial delay per
	// assigned partition per iteration — it emulates a slow machine whose
	// compute time scales with its load, so migrations that shed load
	// visibly speed the worker up. Both delays count as compute time in the
	// telemetry the worker reports.
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
	// Codecs restricts the gradient codecs this worker advertises in its
	// hello; nil advertises every non-raw codec. Advertise only CodecRaw to
	// force raw uploads regardless of the master's preference (and to mimic
	// an un-upgraded peer).
	Codecs []byte
}

// ElasticWorker is a connected elastic worker: it survives strategy
// migrations (MsgReassign) and reports per-iteration telemetry.
type ElasticWorker struct {
	cfg    ElasticWorkerConfig
	conn   *transport.Conn
	dp     *dataplane.Client // wire shard fetcher (nil with local PartitionData)
	id     int               // stable member ID assigned by the master
	codec  grad.Codec        // negotiated upload codec (raw when unadvertised)
	epoch  int
	assign *transport.Assignment
	parts  []*ml.Dataset
	cache  map[int]*ml.Dataset

	// Single-slot upload pipeline: iterate hands each iteration's sends to
	// the uploader goroutine (the connection's sole writer while Run is
	// live), so iteration k+1's compute and encode overlap upload k. The
	// capacity-1 channel bounds the pipeline at one in-flight iteration.
	up      chan func() error
	upFail  chan error    // first upload error, capacity 1
	upDrain chan struct{} // closed when the uploader exits

	// Phase timing echoed as trace spans on each upload. lastFetch is the
	// wire-fetch time of the most recent migration, attributed to the next
	// upload (amortized: a fetch serves every following iteration).
	// lastUpload (Float64bits) is the PREVIOUS iteration's send duration —
	// a sender cannot know this upload's duration before sending it. It is
	// written by the uploader goroutine and read by iterate, hence atomic.
	lastFetch  float64
	lastUpload atomic.Uint64
}

// DialElasticWorker connects to an elastic master and performs the
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
	advertised := cfg.Codecs
	if advertised == nil {
		advertised = grad.AdvertiseCodecs()
	}
	if err := conn.Send(&transport.Envelope{Type: transport.MsgHello, WorkerID: helloID, Codecs: advertised, Caps: transport.CapVectorFrame}); err != nil {
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
	// The vector frame is on once both sides named it; an old master's ack
	// carries no capability and the connection stays on gob.
	if ack.Caps&transport.CapVectorFrame != 0 {
		conn.UseVectorFrames()
	}
	// Honor the master's chosen codec only if this worker advertised it —
	// anything else (including an old master's zero value) means raw.
	codec := grad.CodecRaw
	if c := grad.Codec(ack.Codec); c != grad.CodecRaw && c.Valid() {
		for _, adv := range advertised {
			if adv == ack.Codec {
				codec = c
				break
			}
		}
	}
	w := &ElasticWorker{
		cfg:   cfg,
		conn:  conn,
		id:    ack.WorkerID,
		codec: codec,
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
// connection loss. For every iteration it computes and encodes the coded
// gradient of its current assignment, then hands the upload (gradient plus a
// telemetry report: compute seconds, partitions processed) to the uploader
// goroutine — so the next iteration's compute and encode overlap the
// previous upload, one iteration deep.
func (w *ElasticWorker) Run() error {
	w.up = make(chan func() error, 1)
	w.upFail = make(chan error, 1)
	w.upDrain = make(chan struct{})
	go w.uploader()
	defer func() {
		close(w.up)
		<-w.upDrain
		w.Close()
	}()
	for {
		env, err := w.conn.Recv()
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
				return err
			}
		default:
			// Ignore unexpected frames; the master drives the protocol.
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

// uploader drains the upload pipeline. It is the connection's sole writer
// while Run is live; the first send failure is parked in upFail for iterate
// to surface, and later jobs still run (they fail fast on the dead
// connection) so the pipeline never blocks the compute loop.
func (w *ElasticWorker) uploader() {
	defer close(w.upDrain)
	for job := range w.up {
		if err := job(); err != nil {
			select {
			case w.upFail <- err:
			default:
			}
		}
	}
}

// submitUpload enqueues one iteration's sends, surfacing any earlier upload
// failure instead (the iteration's work is moot — the connection is gone).
func (w *ElasticWorker) submitUpload(job func() error) error {
	select {
	case err := <-w.upFail:
		return err
	default:
	}
	w.up <- job
	return nil
}

// iterate computes, encodes and uploads one iteration's coded gradient and
// telemetry.
func (w *ElasticWorker) iterate(env *transport.Envelope) error {
	computeStart := time.Now()
	partials := make([]grad.Gradient, len(w.parts))
	for i, d := range w.parts {
		g, err := w.cfg.Model.Gradient(env.Vector, d)
		if err != nil {
			return fmt.Errorf("worker %d iter %d: %w", w.id, env.Iter, err)
		}
		partials[i] = g
	}
	gradSec := time.Since(computeStart).Seconds()
	encodeStart := time.Now()
	coded := grad.GetBuffer(len(env.Vector))
	if len(partials) == 0 {
		// Zero-load assignment (the planner starved this slot): the coding
		// row is empty, so the honest upload is the zero vector — decode may
		// still hand the slot a free coefficient.
		for i := range coded {
			coded[i] = 0
		}
	} else {
		err := grad.EncodeInto(coded, w.assign.RowCoeffs, partials)
		// The partials are this worker's (ml.Model.Gradient's contract) and
		// are folded into coded: back to the pool they came from.
		for _, p := range partials {
			grad.PutBuffer(p)
		}
		if err != nil {
			grad.PutBuffer(coded)
			return fmt.Errorf("worker %d iter %d: %w", w.id, env.Iter, err)
		}
	}
	encodeSec := time.Since(encodeStart).Seconds()
	// Artificial slowness counts as compute so telemetry sees the machine
	// the master sees.
	var extra time.Duration
	if w.cfg.Delay != nil {
		extra += w.cfg.Delay(env.Iter)
	}
	if w.cfg.DelayPerPartition != nil {
		extra += time.Duration(len(w.parts)) * w.cfg.DelayPerPartition(env.Iter)
	}
	if extra > 0 {
		time.Sleep(extra)
	}
	compute := time.Since(computeStart).Seconds()

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
	release := func() { grad.PutBuffer(coded) }
	if w.codec != grad.CodecRaw {
		quantStart := time.Now()
		q, err := grad.AppendQuantized(grad.GetBytes(8*len(coded)), w.codec, coded)
		if err != nil {
			grad.PutBuffer(coded)
			return fmt.Errorf("worker %d iter %d: %w", w.id, env.Iter, err)
		}
		encodeSec += time.Since(quantStart).Seconds()
		out.Codec, out.Quant, out.QuantLen = byte(w.codec), q, len(coded)
		grad.PutBuffer(coded)
		release = func() { grad.PutBytes(q) }
	} else {
		out.Vector = coded
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
	tel := &transport.Envelope{
		Type:     transport.MsgTelemetry,
		Iter:     env.Iter,
		Epoch:    w.epoch,
		WorkerID: w.id,
		RootGen:  env.RootGen,
		Telemetry: &transport.Telemetry{
			ComputeSeconds: compute,
			Partitions:     len(w.parts),
		},
	}
	return w.submitUpload(func() error {
		uploadStart := time.Now()
		err := w.conn.Send(out)
		release()
		if err != nil {
			return err
		}
		up := time.Since(uploadStart).Seconds()
		w.lastUpload.Store(math.Float64bits(up))
		tel.Telemetry.UploadSeconds = up
		return w.conn.Send(tel)
	})
}
